// Command rheem-bench regenerates the paper's evaluation artifacts
// (Figure 2, both sides of Figure 3, IEJoin and the §1 pipeline) plus
// this reproduction's extension experiments. `rheem-bench -h` lists the
// experiments; DESIGN.md §6 indexes them and EXPERIMENTS.md records
// paper-vs-measured comparisons.
//
// Usage:
//
//	rheem-bench [-experiment all|NAME] [-quick] [-clock sim|wall] [-csv DIR]
//	            [-v] [-trace FILE] [-profile FILE] [-perfetto FILE]
//	            [-metrics ADDR] [-linger DUR] [-scrape URL]
//
// Regressions are gated elsewhere: by the tier-1 paper fences in
// internal/bench (TestFigure2Shape, TestOptimizerTracksFigure2,
// TestFigure3Shape, TestSection1PlacementPlan), the layout and
// allocation gates (go test ./...) and by the repository benchmark
// (bash benchmarks/run.sh, BENCHMARK.json).
//
// -profile runs the same demo job as -trace with the flight recorder
// attached and writes the analyzed run profile — critical path, time
// attribution per platform and operator, top atoms — as JSON; -perfetto
// additionally writes the Chrome-trace-event export, loadable in
// ui.perfetto.dev or chrome://tracing.
//
// With -metrics ADDR the process serves /metrics (Prometheus text
// exposition), /runs (live per-run JSON progress) and /debug/pprof
// while the experiments execute, and prints a final scrape to stdout
// when they finish. -scrape URL turns the binary into a dependency-free
// scrape validator (for CI): GET the URL, check 200 and that the body
// parses as Prometheus exposition or JSON, then exit.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rheem"
	"rheem/internal/bench"
	"rheem/internal/core/metrics"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/data"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run ("+strings.Join(bench.Experiments(), ", ")+"), or 'all'")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	clock := flag.String("clock", "sim", "reported clock: 'sim' (simulated cluster time) or 'wall'")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	verbose := flag.Bool("v", false, "log progress")
	mappings := flag.Bool("mappings", false, "print the declarative operator-mapping table and exit")
	tracePath := flag.String("trace", "", "run a traced demo job and dump its span trace as JSON lines to FILE ('-' for stdout), then exit")
	profilePath := flag.String("profile", "", "run the demo job under the flight recorder and write its analyzed profile as JSON to FILE ('-' for stdout), then exit")
	perfettoPath := flag.String("perfetto", "", "with -profile: also write the Chrome-trace-event export to FILE")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /runs and /debug/pprof on ADDR while experiments run, then print a final scrape to stdout")
	linger := flag.Duration("linger", 0, "with -metrics: keep serving this long after the experiments finish")
	scrapeURL := flag.String("scrape", "", "GET URL, validate the response (Prometheus exposition or JSON), then exit")
	flag.Parse()

	if *scrapeURL != "" {
		if err := scrape(*scrapeURL, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: scrape: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *mappings {
		ctx, err := rheem.NewContext(rheem.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(ctx.Registry().DescribeMappings())
		return
	}

	if *tracePath != "" {
		out := io.WriteCloser(os.Stdout)
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rheem-bench: %v\n", err)
				os.Exit(1)
			}
			out = f
		}
		// Buffer the line stream, and treat a failed Flush or Close as
		// a failed dump: a truncated JSONL file must not exit 0.
		buf := bufio.NewWriter(out)
		err := traceDump(buf)
		if ferr := buf.Flush(); err == nil {
			err = ferr
		}
		if *tracePath != "-" {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *profilePath != "" {
		out := io.WriteCloser(os.Stdout)
		if *profilePath != "-" {
			f, err := os.Create(*profilePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rheem-bench: %v\n", err)
				os.Exit(1)
			}
			out = f
		}
		buf := bufio.NewWriter(out)
		err := profileDump(buf, *perfettoPath)
		if ferr := buf.Flush(); err == nil {
			err = ferr
		}
		if *profilePath != "-" {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: profile: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.Config{Quick: *quick}
	switch *clock {
	case "sim":
	case "wall":
		cfg.WallClock = true
	default:
		fmt.Fprintf(os.Stderr, "rheem-bench: unknown clock %q\n", *clock)
		os.Exit(2)
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var srv *metrics.Server
	if *metricsAddr != "" {
		cfg.Hub = metrics.NewHub()
		srv = metrics.NewServer(cfg.Hub)
		addr, err := srv.Start(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rheem-bench: serving /metrics, /runs, /debug/pprof on http://%s\n", addr)
	}

	names := bench.Experiments()
	if *experiment != "all" {
		names = []string{*experiment}
	}
	for _, name := range names {
		tables, err := bench.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for i, t := range tables {
			t.Print(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, name, i, t); err != nil {
					fmt.Fprintf(os.Stderr, "rheem-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}

	if srv != nil {
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "rheem-bench: experiments done, serving %v longer on http://%s\n", *linger, srv.Addr())
			time.Sleep(*linger)
		}
		fmt.Println("--- final /metrics scrape ---")
		if err := cfg.Hub.Registry().WriteProm(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: metrics: %v\n", err)
			os.Exit(1)
		}
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rheem-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// scrape is the -scrape mode: a dependency-free monitoring validator
// for CI. It GETs url, requires a 200, and checks that the body
// actually parses — Prometheus text exposition for text/plain
// responses, JSON otherwise — echoing the body to w on success.
func scrape(url string, w io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		if _, err := metrics.ParseProm(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("%s: invalid Prometheus exposition: %w", url, err)
		}
	} else if !json.Valid(body) {
		return fmt.Errorf("%s: response is neither Prometheus text nor valid JSON", url)
	}
	_, err = w.Write(body)
	return err
}

// traceDump runs a small multi-platform demo job with tracing enabled
// and writes the span trace as JSON lines — one self-contained object
// per span, then one per estimate-vs-actual audit record. The output
// is flame-friendly: every line has start/end stamps and durations in
// nanoseconds, ready for jq or a flame-chart converter.
func traceDump(w io.Writer) error {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return err
	}
	_, rep, err := ctx.Execute(demoPlan(), rheem.WithTracing())
	if err != nil {
		return err
	}
	return rep.Trace.WriteJSON(w)
}

// demoPlan builds the demo job -trace and -profile share: a filter with
// a deliberately wrong selectivity (0.5 vs the actual ≈ 6/7, so the
// estimate-vs-actual audit has signal) feeding a per-key reduction.
func demoPlan() *plan.Plan {
	recs := make([]data.Record, 5000)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Int(int64(i%7)))
	}
	b := plan.NewBuilder("trace-demo")
	src := b.Source("ints", plan.Collection(recs))
	src.CardHint = int64(len(recs))
	f := b.Filter(src, func(r data.Record) (bool, error) {
		return r.Field(1).Int() != 0, nil
	})
	f.Selectivity = 0.5
	red := b.ReduceByKey(f, plan.FieldKey(1), func(a, b data.Record) (data.Record, error) {
		return data.NewRecord(a.Field(0), data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
	})
	b.Collect(red)
	return b.MustBuild()
}

// profileDump is the -profile mode: run the demo job with the flight
// recorder attached and write its analyzed profile (critical path, time
// attribution, top atoms) as indented JSON; a non-empty perfettoPath
// additionally receives the Chrome-trace-event export.
func profileDump(w io.Writer, perfettoPath string) error {
	rec := profile.NewRecorder(1, nil)
	ctx, err := rheem.NewContext(rheem.Config{}, rheem.WithFlightRecorder(rec))
	if err != nil {
		return err
	}
	_, rep, err := ctx.Execute(demoPlan())
	if err != nil {
		return err
	}
	r, ok := rec.Get(rep.RunID)
	if !ok {
		return fmt.Errorf("no profile recorded for run %d", rep.RunID)
	}
	b, err := json.MarshalIndent(r.Profile, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	if perfettoPath != "" {
		f, err := os.Create(perfettoPath)
		if err != nil {
			return err
		}
		werr := r.WritePerfetto(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}
	return nil
}

func writeCSV(dir, name string, i int, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if i > 0 {
		suffix = fmt.Sprintf("_%d", i)
	}
	path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+suffix+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return nil
}
