package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"rheem"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

// scale sizes the workloads. full is what BENCHMARK.json measures;
// quick keeps the same code paths at sizes the tier-1 test finishes in
// seconds.
type scale struct {
	colscanRows int
	xplatRows   int
	sqlCatalog  int // rows in small-sql's catalog tables
	httpCatalog int // service-http's Config.CatalogScale
	httpWorkN   int // wordcount / sensor spec size
	httpFanN    int // fanout spec size (× 4 branches)

	// warmup is the fixed number of warm-up jobs inside every set-up,
	// sized so one set-up takes at least 2 s at full scale even in the
	// box's fastest hour.
	warmup map[string]int
	// traced is how many jobs the traced pass runs with spans (and as
	// many again without, interleaved, to price the tracing).
	traced map[string]int
	// setups is how many times a timed run sets up; setup_s is the
	// median.
	setups int
	// minJobs is the floor on timed jobs, so that at least ten samples
	// lie beyond the 90th percentile.
	minJobs int
}

var fullScale = scale{
	colscanRows: 1_000_000,
	xplatRows:   300_000,
	sqlCatalog:  500,
	httpCatalog: 2000,
	httpWorkN:   4000,
	httpFanN:    200,
	warmup:      map[string]int{"colscan-1m": 11, "xplat-udf": 8, "small-sql": 13000, "service-http": 1600},
	traced:      map[string]int{"colscan-1m": 30, "xplat-udf": 30, "small-sql": 5000, "service-http": 3000},
	setups:      3,
	minJobs:     100,
}

var quickScale = scale{
	colscanRows: 20_000,
	xplatRows:   6_000,
	sqlCatalog:  200,
	httpCatalog: 200,
	httpWorkN:   200,
	httpFanN:    40,
	warmup:      map[string]int{"colscan-1m": 2, "xplat-udf": 2, "small-sql": 50, "service-http": 22},
	traced:      map[string]int{"colscan-1m": 4, "xplat-udf": 4, "small-sql": 48, "service-http": 22},
	setups:      1,
	minJobs:     11,
}

// workload is one of the four benchmark workloads. A value is used for
// one set-up: generate the inputs from the seed, compute the reference
// answers in plain Go, build the system under test and warm it.
type workload interface {
	name() string
	// setup does all of the above except the warm-up jobs, which the
	// caller drives through job so they are counted like timed jobs.
	setup(seed uint64, sc scale) error
	close()

	// clients is how many closed-loop clients generate the load.
	clients() int
	// job runs job i the way the workload's user would — build the plan
	// or spec, submit, wait for the result, verify it.
	job(i int) error

	// inputDigest fingerprints the generated inputs (data and job
	// parameters), for the same-seed-same-inputs test.
	inputDigest() string

	// The rest serves the layer probes of the traced pass.

	// engine is the context the workload's jobs run on.
	engine() *rheem.Context
	// build makes job i's logical plan, with a span around each layer
	// call it takes (parse, compile, plan construction) when rec is set.
	build(rec *recorder, i, parent int) (*plan.Plan, error)
	// optOptions is how the workload steers the optimizer for a plan.
	optOptions(pp *physical.Plan) optimizer.Options
	// verify checks job i's records against the reference.
	verify(i int, recs []data.Record) error
	// sample is the workload's own data the conversion and batch probes
	// move, and inputRows the rows one job reads.
	sample() []data.Record
	inputRows() int
}

var workloadOrder = []string{"colscan-1m", "xplat-udf", "small-sql", "service-http"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "colscan-1m":
		return &colscan{}, nil
	case "xplat-udf":
		return &xplat{}, nil
	case "small-sql":
		return &smallSQL{}, nil
	case "service-http":
		return &serviceHTTP{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadOrder)
}

// newRand is the one source of randomness: a PCG stream per (seed,
// purpose), so inputs are a function of the seed alone.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
}

// pick draws job i's parameter in [0, n) from the seed without keeping
// a per-job table.
func pick(seed uint64, i, n int) int {
	x := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// engineRun is what one pass through the engine's layers produced.
type engineRun struct {
	plan *optimizer.ExecutionPlan
	res  *executor.Result
	wall time.Duration // executor.Run wall
}

// runLayers translates, optimises and runs a logical plan exactly as
// rheem.Context.Execute does — physical.FromLogical → optimizer.Optimize
// → hub tracer → executor.Run → flight recorder → calibrator fold — as
// explicit calls into each layer's public function, with a span around
// each when rec is set. With hub == nil the run is untraced by the
// engine too (no hub tracer, recorder or calibrator): the baseline the
// telemetry overhead is measured against.
func runLayers(ctx *rheem.Context, hub *metrics.Hub, w workload, p *plan.Plan, rec *recorder, job, parent int) (*engineRun, error) {
	id := rec.begin(job, parent, "physical.translate")
	pp, err := physical.FromLogical(p)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	opt := w.optOptions(pp)
	var execOpts executor.Options
	if hub != nil {
		cal := hub.Calibrator()
		opt.Calibration, execOpts.Calibration = cal, cal
	}
	id = rec.begin(job, parent, "optimizer.optimize")
	ep, err := optimizer.Optimize(pp, ctx.Registry(), opt)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	var run *metrics.Run
	if hub != nil {
		id = rec.begin(job, parent, "metrics.hub")
		execOpts.Tracer, run = hub.NewRunTracer(p.Name())
		rec.end(id)
	}
	id = rec.begin(job, parent, "executor.run")
	t0 := time.Now()
	res, err := executor.Run(ep, ctx.Registry(), execOpts)
	wall := time.Since(t0)
	rec.end(id)
	if hub != nil {
		tid := rec.begin(job, parent, "metrics.hub")
		run.End(err)
		snap := execOpts.Tracer.Snapshot()
		rec.end(tid)
		if fr := hub.FlightRecorder(); fr != nil {
			tid = rec.begin(job, parent, "profile.record")
			fr.Record(run.ID(), p.Name(), run.Started(), run.Ended(), err, snap)
			rec.end(tid)
		}
		if cal := hub.Calibrator(); cal != nil {
			tid = rec.begin(job, parent, "cost.fold")
			cal.Fold(profile.Observations(snap.Spans, snap.Audits))
			rec.end(tid)
		}
	}
	if err != nil {
		return nil, err
	}
	// The executor's own atom spans become children of executor.run, so
	// its self time is what scheduling costs on top of the atoms.
	if rec != nil {
		for _, sp := range res.Trace.Spans {
			if sp.Kind != trace.KindShard && sp.Iteration < 0 {
				rec.add(job, id, "executor.atom."+string(sp.Platform), sp.StartedAt, sp.EndedAt)
			}
		}
	}
	return &engineRun{plan: ep, res: res, wall: wall}, nil
}

// engineJob is the shape of an in-process job: build the plan, run it,
// verify the records. Untraced, it goes through `user` — the call the
// workload's user makes (Context.Execute, rheemql.Run). Traced, or when
// the workload has no such call, it makes the same layer calls
// explicitly through runLayers, and returns what they produced.
func engineJob(w workload, ctx *rheem.Context, rec *recorder, i int, user func(i int) ([]data.Record, error)) (*engineRun, error) {
	root := rec.begin(i, 0, rootSpan)
	defer rec.end(root)
	var run *engineRun
	var recs []data.Record
	var err error
	if rec == nil && user != nil {
		recs, err = user(i)
	} else {
		var p *plan.Plan
		if p, err = w.build(rec, i, root); err == nil {
			if run, err = runLayers(ctx, ctx.Telemetry(), w, p, rec, i, root); err == nil {
				recs = run.res.Records
			}
		}
	}
	if err != nil {
		return nil, err
	}
	id := rec.begin(i, root, "verify")
	defer rec.end(id)
	return run, w.verify(i, recs)
}
