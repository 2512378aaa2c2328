package main

import (
	"fmt"
	"runtime"
	"time"

	"rheem"
	"rheem/internal/core/batch"
	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/profile"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// perLayer lists the traced pass's metrics with their units. Every
// workload reports every one; a layer a workload never enters reads 0
// (no RheemQL on colscan-1m, no service on the three in-process
// workloads). The first three are the demoted timing metrics, here
// over the ladder's untraced jobs.
var perLayer = []struct{ name, unit string }{
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"rheemql.parse_us", "us"},
	{"rheemql.compile_us", "us"},
	{"physical.translate_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.atoms", "count"},
	{"optimizer.platforms", "count"},
	{"optimizer.regret_pct", "%"},
	{"executor.run_ms", "ms"},
	{"executor.queue_wait_us", "us"},
	{"executor.sched_us_per_atom", "us"},
	{"channel.table_to_collection_ns_per_row", "ns"},
	{"channel.collection_to_partitioned_ns_per_row", "ns"},
	{"channel.collection_to_batch_ns_per_row", "ns"},
	{"channel.batch_to_collection_ns_per_row", "ns"},
	{"channel.moved_mb_per_job", "MB"},
	{"channel.conversions_per_job", "count"},
	{"javaengine.job_ms", "ms"},
	{"sparksim.job_ms", "ms"},
	{"relengine.job_ms", "ms"},
	{"javaengine.ns_per_row", "ns"},
	{"javaengine.columnar_job_ms", "ms"},
	{"javaengine.columnar_allocs_per_job", "count"},
	{"sparksim.shuffled_mb_per_job", "MB"},
	{"batch.from_records_ns_per_row", "ns"},
	{"batch.to_records_ns_per_row", "ns"},
	{"data.digest_us", "us"},
	{"service.submit_us", "us"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_us", "us"},
	{"service.polls_per_job", "count"},
	{"service.http_overhead_ms", "ms"},
	{"service.shed_ratio", "ratio"},
	{"service.plan_variants_per_spec", "count"},
	{"metrics.hub_overhead_us", "us"},
	{"profile.record_us", "us"},
	{"cost.fold_us", "us"},
	{"runtime.cpu_ms_per_job", "ms"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_ms_per_job", "ms"},
	{"runtime.peak_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_pct", "%"},
}

// Shares of the traced pass's duration: the ladder (jobs run once with
// spans and once without, interleaved), then the probes, each of which
// gets an equal slice of what the ladder leaves. Every part also has a
// floor of a few jobs, so a slow host overruns rather than starves one.
const (
	ladderShare = 0.4
	probeShare  = 0.5
	probeCount  = 8
	probeFloor  = 3
)

// ladder is what the interleaved traced/untraced loop measured.
type ladder struct {
	spans            []span
	traced, untraced []time.Duration
	runs             []*engineRun // one per traced engine job
	phase            phase
}

// runLadder runs jobs in pairs per client — job i once through
// `untraced` and once through `traced` with spans, the order swapping
// from pair to pair — so machine drift and the warmth the first run
// leaves behind hit both sides alike. With untraced == nil every job is
// traced. idBase keeps span IDs apart when one pass runs two ladders.
func runLadder(clients, jobs int, dur time.Duration, epoch time.Time, idBase int,
	untraced func(i int) error, traced func(rec *recorder, i int) (*engineRun, error)) ladder {
	type side struct {
		rec              *recorder
		traced, untraced []time.Duration
		runs             []*engineRun
	}
	sides := make([]side, clients)
	for c := range sides {
		sides[c].rec = newRecorder(epoch, idBase+c<<24)
	}
	calls := 1
	if untraced != nil {
		calls = 2
	}
	var l ladder
	l.phase = runLoop(clients, limits{minJobs: calls * probeFloor * clients, maxJobs: calls * jobs, dur: dur}, func(c, j int) error {
		s := &sides[c]
		n := j / clients // this client's n-th call
		i := c + n/calls*clients
		t0 := time.Now()
		if calls == 2 && n%2 == n/2%2 {
			err := untraced(i)
			s.untraced = append(s.untraced, time.Since(t0))
			return err
		}
		run, err := traced(s.rec, i)
		s.traced = append(s.traced, time.Since(t0))
		if run != nil {
			s.runs = append(s.runs, run)
		}
		return err
	})
	for _, s := range sides {
		l.spans = append(l.spans, s.rec.spans...)
		l.traced = append(l.traced, s.traced...)
		l.untraced = append(l.untraced, s.untraced...)
		l.runs = append(l.runs, s.runs...)
	}
	return l
}

// tracedPass is the per-layer pass: one set-up, the ladder, the probes.
func tracedPass(name string, seed uint64, dur time.Duration, sc scale) (*result, []span, error) {
	w, err := setUp(name, seed, sc)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	v := map[string]float64{}
	epoch := time.Now()
	ladderDur := time.Duration(ladderShare * float64(dur))
	slice := time.Duration(probeShare * float64(dur) / probeCount)

	engineTraced := func(rec *recorder, i int) (*engineRun, error) {
		return engineJob(w, w.engine(), rec, i, nil)
	}
	var l ladder
	h, isHTTP := w.(*serviceHTTP)
	if isHTTP {
		// The client-observed ladder is the HTTP one; the engine's layers
		// under the service get a ladder of their own afterwards.
		h.resetTallies()
		l = runLadder(w.clients(), sc.traced[name], ladderDur/2, epoch, 0, w.job, func(rec *recorder, i int) (*engineRun, error) {
			return nil, h.httpJob(rec, i)
		})
		httpLayers(h, l, v)
		if err := serviceProbe(h, len(l.untraced), median(l.untraced), v); err != nil {
			return nil, nil, err
		}
		eng := runLadder(1, sc.traced[name], ladderDur/2, epoch, 1<<30, nil, engineTraced)
		engineLayers(eng, v)
		for _, sp := range eng.spans {
			sp.Job += 1 << 30 // the two ladders number their jobs alike
			l.spans = append(l.spans, sp)
		}
		l.phase.failed += eng.phase.failed
		l.phase.attempted += eng.phase.attempted
	} else {
		l = runLadder(w.clients(), sc.traced[name], ladderDur, epoch, 0, w.job, engineTraced)
		engineLayers(l, v)
	}

	// The client-observed timings of the ladder's untraced jobs. A closed
	// loop's clients are never idle, so on these jobs alone each would
	// complete one per mean latency.
	var busy time.Duration
	for _, d := range l.untraced {
		busy += d
	}
	v["job_p50_ms"] = ms(median(l.untraced))
	v["job_p90_ms"] = ms(percentile(l.untraced, 0.9))
	v["jobs_per_s"] = float64(w.clients()*len(l.untraced)) / busy.Seconds()

	jobs := float64(len(l.traced) + len(l.untraced))
	v["runtime.cpu_ms_per_job"] = ms(l.phase.cpu) / jobs
	v["runtime.gc_cycles_per_job"] = float64(l.phase.gcCycles) / jobs
	v["runtime.gc_pause_ms_per_job"] = ms(l.phase.gcPause) / jobs
	v["runtime.peak_heap_mb"] = float64(l.phase.peakHeap) / 1e6
	if u := median(l.untraced); u > 0 {
		v["trace.overhead_pct"] = 100 * (float64(median(l.traced)) - float64(u)) / float64(u)
	}
	v["trace.attributed_pct"] = 100 * attributedShare(l.spans)

	if err := engineProbes(w, slice, v); err != nil {
		return nil, nil, err
	}
	if err := dataProbes(w, slice, v); err != nil {
		return nil, nil, err
	}

	res := &result{Correct: l.phase.failed == 0, Attempted: l.phase.attempted, Failed: l.phase.failed,
		Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res, l.spans, nil
}

// layerMedians turns spans into per-job figures by span name: self time
// (duration minus what child spans cover) and plain duration, each the
// median over the jobs that entered the layer.
func layerMedians(spans []span) (self, total map[string]float64) {
	durations := map[int]map[string]int64{}
	for _, sp := range spans {
		if durations[sp.Job] == nil {
			durations[sp.Job] = map[string]int64{}
		}
		durations[sp.Job][sp.Name] += sp.End - sp.Start
	}
	medians := func(perJob map[int]map[string]int64) map[string]float64 {
		byName := map[string][]float64{}
		for _, times := range perJob {
			for name, ns := range times {
				byName[name] = append(byName[name], float64(ns))
			}
		}
		out := make(map[string]float64, len(byName))
		for name, vals := range byName {
			out[name] = medianOf(vals)
		}
		return out
	}
	return medians(selfTimes(spans)), medians(durations)
}

// engineLayers fills the metrics of the layers under Context.Execute
// from an engine ladder: span times, and the counts executor.Result and
// the execution plan already report.
func engineLayers(l ladder, v map[string]float64) {
	self, total := layerMedians(l.spans)
	v["rheemql.parse_us"] = self["rheemql.parse"] / 1e3
	v["rheemql.compile_us"] = self["rheemql.compile"] / 1e3
	v["physical.translate_us"] = self["physical.translate"] / 1e3
	v["optimizer.optimize_us"] = self["optimizer.optimize"] / 1e3
	v["executor.run_ms"] = total["executor.run"] / 1e6

	var atoms, platforms, queueWait, moved, conversions, shuffled []float64
	for _, run := range l.runs {
		seen := map[engine.PlatformID]bool{}
		for _, id := range run.plan.Assignment {
			seen[id] = true
		}
		atoms = append(atoms, float64(len(run.plan.Atoms)))
		platforms = append(platforms, float64(len(seen)))
		var wait time.Duration
		for _, sp := range run.res.Trace.Spans {
			wait += sp.QueueWait
		}
		queueWait = append(queueWait, us(wait))
		m := run.res.Metrics
		moved = append(moved, float64(m.MovedBytes)/1e6)
		conversions = append(conversions, float64(m.Conversions))
		shuffled = append(shuffled, float64(m.ShuffledBytes)/1e6)
	}
	// What executor.Run spends outside its atoms, per atom: the run's
	// self time once the executor's own atom spans are taken out. (With
	// atoms in sequence that is run wall − Σ atom wall; the union keeps
	// it meaningful when atoms overlap.)
	if n := medianOf(atoms); n > 0 {
		v["executor.sched_us_per_atom"] = self["executor.run"] / 1e3 / n
	}
	v["optimizer.atoms"] = medianOf(atoms)
	v["optimizer.platforms"] = medianOf(platforms)
	v["executor.queue_wait_us"] = medianOf(queueWait)
	v["channel.moved_mb_per_job"] = medianOf(moved)
	v["channel.conversions_per_job"] = medianOf(conversions)
	v["sparksim.shuffled_mb_per_job"] = medianOf(shuffled)
}

// httpLayers fills the service-side metrics from the HTTP ladder.
func httpLayers(h *serviceHTTP, l ladder, v map[string]float64) {
	_, total := layerMedians(l.spans)
	v["service.queue_ms"] = total["service.queue"] / 1e6
	v["service.run_ms"] = total["service.run"] / 1e6
	v["service.result_us"] = total["http.result"] / 1e3
	v["service.polls_per_job"], v["service.shed_ratio"], v["service.plan_variants_per_spec"] = h.tallies()
}

// serviceProbe runs the same spec sequence in process — Submit, Wait,
// Result — from the same number of clients, for the Submit call, the
// digest, and what HTTP adds on top (against the HTTP ladder's untraced
// median).
func serviceProbe(h *serviceHTTP, jobs int, httpP50 time.Duration, v map[string]float64) error {
	clients := h.clients()
	submits, digests := make([][]time.Duration, clients), make([][]time.Duration, clients)
	p := runLoop(clients, exactly(jobs), func(c, i int) error {
		submit, digest, err := h.inProcess(i)
		submits[c], digests[c] = append(submits[c], submit), append(digests[c], digest)
		return err
	})
	if p.failed > 0 {
		return fmt.Errorf("service-http: %d of %d in-process jobs failed", p.failed, p.attempted)
	}
	var submit, digest []time.Duration
	for c := range submits {
		submit, digest = append(submit, submits[c]...), append(digest, digests[c]...)
	}
	v["service.submit_us"] = us(median(submit))
	v["data.digest_us"] = us(median(digest))
	v["service.http_overhead_ms"] = ms(httpP50 - median(p.latencies))
	return nil
}

// engineProbes runs the workload's own jobs on a context of their own:
// pinned wholly to each platform and with free optimiser choice (regret
// is free against the best pin), on the columnar path, and with and
// without the telemetry hub. Every answer is verified, so the pins also
// check that all three platforms agree with the reference.
func engineProbes(w workload, slice time.Duration, v map[string]float64) error {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return err
	}
	defer ctx.Close()
	execute := func(ctx *rheem.Context, opts ...rheem.RunOption) func(i int) error {
		return func(i int) error {
			p, err := w.build(nil, i, 0)
			if err != nil {
				return err
			}
			recs, _, err := ctx.Execute(p, opts...)
			if err != nil {
				return err
			}
			return w.verify(i, recs)
		}
	}

	// The three pins and free choice take turns on the same jobs, so
	// drift and heap state hit all four alike.
	arms := []struct {
		metric string
		opts   []rheem.RunOption
	}{
		{"javaengine.job_ms", []rheem.RunOption{rheem.OnPlatform(javaengine.ID)}},
		{"sparksim.job_ms", []rheem.RunOption{rheem.OnPlatform(sparksim.ID)}},
		{"relengine.job_ms", []rheem.RunOption{rheem.OnPlatform(relengine.ID)}},
		{"", nil}, // free choice
	}
	times := make([][]time.Duration, len(arms))
	_, err = timeN(probeFloor*len(arms), time.Duration(len(arms))*slice, func(k int) error {
		arm := k % len(arms)
		t0 := time.Now()
		err := execute(ctx, arms[arm].opts...)(k / len(arms))
		times[arm] = append(times[arm], time.Since(t0))
		return err
	})
	if err != nil {
		return fmt.Errorf("%s pinned or free: %w", w.name(), err)
	}
	best := median(times[0])
	for arm, d := range times[:3] {
		v[arms[arm].metric] = ms(median(d))
		best = min(best, median(d))
	}
	v["javaengine.ns_per_row"] = v["javaengine.job_ms"] * 1e6 / float64(w.inputRows())
	v["optimizer.regret_pct"] = 100 * float64(median(times[3])-best) / float64(best)

	col, err := rheem.NewContext(rheem.Config{Columnar: true})
	if err != nil {
		return err
	}
	defer col.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := timeN(probeFloor, slice, execute(col, rheem.OnPlatform(javaengine.ID)))
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("%s on the columnar path: %w", w.name(), err)
	}
	v["javaengine.columnar_job_ms"] = ms(median(d))
	v["javaengine.columnar_allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(len(d))

	// The hub's price: the Context.Execute steps with the hub's tracer
	// against the same steps with none, in alternation. The flight
	// recorder and the calibrator are timed on each job's own snapshot.
	fr, cal := profile.NewRecorder(0, nil), cost.NewCalibrator(cost.CalibratorConfig{})
	var with, without, record, fold []time.Duration
	_, err = timeN(2*probeFloor, 2*slice, func(k int) error {
		i := k / 2
		p, err := w.build(nil, i, 0)
		if err != nil {
			return err
		}
		hub := ctx.Telemetry()
		if k%2 == 1 {
			hub = nil
		}
		t0 := time.Now()
		run, err := runLayers(ctx, hub, w, p, nil, i, 0)
		took := time.Since(t0)
		if err != nil {
			return err
		}
		if hub == nil {
			without = append(without, took)
			return nil
		}
		with = append(with, took)
		snap := run.res.Trace
		t0 = time.Now()
		fr.Record(int64(i+1), p.Name(), t0.Add(-took), t0, nil, snap)
		record = append(record, time.Since(t0))
		t0 = time.Now()
		cal.Fold(profile.Observations(snap.Spans, snap.Audits))
		fold = append(fold, time.Since(t0))
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s hub probe: %w", w.name(), err)
	}
	v["metrics.hub_overhead_us"] = us(median(with) - median(without))
	v["profile.record_us"] = us(median(record))
	v["cost.fold_us"] = us(median(fold))
	return nil
}

// dataProbes moves the workload's own data over the conversion edges
// its plans cross and through the batch codec, per row.
func dataProbes(w workload, slice time.Duration, v map[string]float64) error {
	ctx, err := rheem.NewContext(rheem.Config{Columnar: true}) // registers the batch edges
	if err != nil {
		return err
	}
	defer ctx.Close()
	recs := w.sample()
	rows := float64(len(recs))
	budget := slice / 3
	convert := func(from *channel.Channel, to channel.Format) (*channel.Channel, float64, error) {
		var out *channel.Channel
		d, err := timeN(probeFloor, budget, func(int) error {
			var err error
			out, _, _, err = ctx.Registry().Channels().Convert(from, to)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: converting %s → %s: %w", w.name(), from.Format, to, err)
		}
		return out, float64(median(d)) / rows, nil
	}
	coll := channel.NewCollection(recs)
	table, _, err := convert(coll, channel.Table)
	if err != nil {
		return err
	}
	if _, v["channel.table_to_collection_ns_per_row"], err = convert(table, channel.Collection); err != nil {
		return err
	}
	if _, v["channel.collection_to_partitioned_ns_per_row"], err = convert(coll, channel.Partitioned); err != nil {
		return err
	}
	asBatch, perRow, err := convert(coll, channel.Batch)
	if err != nil {
		return err
	}
	v["channel.collection_to_batch_ns_per_row"] = perRow
	if _, v["channel.batch_to_collection_ns_per_row"], err = convert(asBatch, channel.Collection); err != nil {
		return err
	}

	var b *batch.Batch
	d, _ := timeN(probeFloor, budget, func(int) error { b = batch.FromRecords(recs); return nil })
	v["batch.from_records_ns_per_row"] = float64(median(d)) / rows
	var back []data.Record
	d, _ = timeN(probeFloor, budget, func(int) error { back = b.ToRecords(); return nil })
	v["batch.to_records_ns_per_row"] = float64(median(d)) / rows
	if len(back) != len(recs) {
		return fmt.Errorf("%s: batch round trip returned %d of %d rows", w.name(), len(back), len(recs))
	}
	return nil
}
