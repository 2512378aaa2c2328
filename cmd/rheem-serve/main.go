// Command rheem-serve runs the multi-tenant job service: an HTTP/JSON
// API executing many tenants' jobs concurrently over one shared
// cross-platform engine, with admission control (bounded queue,
// per-tenant quotas and rate limits), per-job deadlines, per-tenant
// platform health, and graceful drain.
//
// Usage:
//
//	rheem-serve [-addr :8080] [-max-active N] [-queue-depth N] [-pool N]
//	            [-drain-timeout DUR] [-deadline DUR] [-atom-timeout DUR]
//	            [-tenant-concurrent N] [-tenant-queued N]
//	            [-tenant-rate R] [-catalog-scale N]
//	            [-profile-history N] [-calibration] [-state-dir DIR]
//
// Endpoints: POST /jobs, GET /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, DELETE /jobs/{id}, GET /tenants, GET /healthz,
// plus /metrics, /runs, /runs/{id}/profile, /runs/{id}/trace.json,
// /calibration and /debug/pprof from the telemetry hub. POST /jobs
// holds its 202 until the job is terminal, for at most 10 ms, and
// ?wait=<duration> on it and on GET /jobs/{id} chooses the hold.
//
// The flight recorder keeps a bounded history of completed-run
// profiles (-profile-history, negative disables).
//
// Calibration (on by default, -calibration=false disables) folds every
// finished job's estimate-vs-actual residuals into a cost calibrator
// shared across all tenants, so the optimizer's platform choices
// improve with the service's live traffic. Inspect it at GET
// /calibration and via the rheem_calibration_* metrics.
//
// -state-dir names a directory that keeps both across a restart: one
// runprofile-<id>.json per retained profile while the recorder is on,
// and calibration.json, the GET /calibration document, while
// calibration is. Files an older build wrote there
// (runprofile-<id>.csv, calibration.csv, calibration.bin) are ignored.
//
// Shutdown: the first SIGTERM/SIGINT starts a graceful drain — stop
// admitting (503), let queued and running jobs finish (force-cancelled
// at -drain-timeout), flush telemetry, exit. A second signal escalates
// to kill: in-flight jobs are cancelled immediately. Either way every
// accepted job reaches an observable terminal state.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rheem/internal/service"
)

// onListen, when non-nil, receives the bound address (tests).
var onListen func(addr string)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig); err != nil {
		fmt.Fprintln(os.Stderr, "rheem-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("rheem-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	maxActive := fs.Int("max-active", 0, "max jobs executing at once (0 = default 4)")
	queueDepth := fs.Int("queue-depth", 0, "max accepted-but-unstarted jobs before shedding (0 = default 64)")
	pool := fs.Int("pool", 0, "shared scheduler pool slots across all jobs (0 = NumCPU)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget before force-cancelling")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-job deadline")
	atomTimeout := fs.Duration("atom-timeout", 10*time.Second, "default per-atom attempt timeout")
	tenantConcurrent := fs.Int("tenant-concurrent", 0, "per-tenant concurrent-job quota (0 = default 2)")
	tenantQueued := fs.Int("tenant-queued", 0, "per-tenant queued-job quota (0 = default 16)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submissions/sec rate limit (0 = unlimited)")
	catalogScale := fs.Int("catalog-scale", 0, "rows in the SQL catalog tables (0 = full size)")
	profileHistory := fs.Int("profile-history", 0, "completed-run profiles the flight recorder retains (0 = default 64, negative disables)")
	calibration := fs.Bool("calibration", true, "learn cost corrections from finished jobs (shared across tenants)")
	stateDir := fs.String("state-dir", "", "directory keeping flight-recorder profiles and learned calibration across restarts (empty = memory only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, err := service.New(service.Config{
		MaxActiveJobs: *maxActive,
		QueueDepth:    *queueDepth,
		PoolSize:      *pool,
		DrainTimeout:  *drainTimeout,
		DefaultQuota: service.Quota{
			MaxConcurrent: *tenantConcurrent,
			MaxQueued:     *tenantQueued,
			RatePerSec:    *tenantRate,
		},
		DefaultDeadline:    *deadline,
		DefaultAtomTimeout: *atomTimeout,
		CatalogScale:       *catalogScale,
		ProfileHistory:     *profileHistory,
		Calibration:        *calibration,
		StateDir:           *stateDir,
	})
	if err != nil {
		return err
	}
	srv, bound, err := svc.Serve(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rheem-serve listening on %s\n", bound)
	if onListen != nil {
		onListen(bound)
	}

	<-sig
	fmt.Fprintln(stdout, "rheem-serve: signal received, draining (signal again to kill)")
	drained := make(chan service.DrainReport, 1)
	go func() {
		rep, err := svc.Drain(context.Background())
		if err != nil {
			fmt.Fprintln(stderr, "rheem-serve: drain:", err)
		}
		drained <- rep
	}()
	var rep service.DrainReport
	select {
	case rep = <-drained:
	case <-sig:
		fmt.Fprintln(stdout, "rheem-serve: second signal, killing in-flight jobs")
		svc.Kill()
		rep = <-drained
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	svc.Close()
	fmt.Fprintf(stdout, "rheem-serve: drained in %s (forced=%v), bye\n",
		rep.Duration.Round(time.Millisecond), rep.Forced)
	return nil
}
