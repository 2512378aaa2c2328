// Not built under the race detector: its instrumentation allocates on the
// program's behalf, and counts pinned to a few percent mean nothing then.

//go:build !race

package service

import (
	"runtime"
	"testing"

	"rheem"
	"rheem/internal/apps/rheemql"
)

// sqlGateTemplates are the eight query shapes of the repository
// benchmark's small-sql workload (benchmarks/e2e/sqlref.go) at one
// literal each, with what rheemql.Run may allocate for one over
// DefaultCatalog(500): objects and bytes, pinned about four percent
// (in bytes, four percent and 280 bytes: a thread the runtime starts
// inside the window, allocm's 5.5 KB, over twenty queries) above what
// the vectorized lowering reads over the catalog's columns
// with its window scratch leased, a control plane that allocates per
// plan and per atom and keeps a plan's per-operator state, an atom's
// exits and a run's platform counts in slices, an optimizer whose
// 16-byte DP cells and other scratch are leased, a logical plan whose
// operators keep their inputs inline in 112 bytes, a catalog scan that
// takes the table's records as its row form, a run whose state is
// leased, a run whose telemetry is the run itself, handing its trace
// over, two-word data quanta, sorts without a reflect swapper, an
// atom span that keeps six operator kinds in a slice of six and ORDER BY
// on the columns, making only the rows that leave
// (68/77/74/68/71/75/59/89 objects, 18.9/9.4/8.5/7.6/7.2/7.3/6.9/13.7 KB
// at GOMAXPROCS 1 to 4, twelve readings). With the sort over records, as
// key/record pairs, they read 68/77/74/70/72/75/59/91 objects and
// 18.9/9.4/8.5/8.7/7.7/7.3/6.9/16.4 KB. With sort.SliceStable and
// six kinds spilt to a ten-entry array they read 68/77/74/74/75/75/59/95
// objects and 18.9/9.4/8.6/8.9/7.9/7.4/6.9/16.6 KB. With a tracer, closure and consumer slice apart from each
// run and its trace copied out they read 79/88/85/84/86/86/70/106
// objects and 19.2/9.7/8.8/8.9/8.1/7.6/7.1/16.8 KB. With every operator carrying every kind's fields in 320
// bytes and a scan deriving its row form from the columns they read
// 81/90/87/86/88/88/72/108 objects and 20.3/10.6/9.7/10.1/9.1/8.5/8.0/
// 18.1 KB, pinned 1.4 KB higher in bytes for when one query of the
// twenty made its scratch anew while scratches were kept in a
// sync.Pool, which the collector empties. With a slice per logical edge and the run's state
// made per Run they read 94/101/98/100/101/99/83/122 objects and 20.8/
// 10.9/10.1/10.6/9.6/8.8/8.4/18.6 KB. With 88-byte DP cells and the optimizer's scratch made per call they read
// 99/106/103/105/106/104/88–90/127 objects and 22.5/12.3/11.4/12.7/11.3/
// 10.2/9.8–10.5/20.7 KB. With the execution
// plan's assignment and costs in Go maps, the atom's exits in a map and
// float literals tried as ints first they read 112/116/116/115/116/117/
// 98/137 objects and 24.1/14.0/13.1/14.3/12.9/11.9/11.4/22.3 KB. With
// three-word quanta (a 24-byte Value and Record)
// the bytes read 28.1/15.2/14.4/15.3/13.6/11.9/12.0/26.3 KB. With objects
// per operator — a physical plan built one at a time, atom inputs in
// maps, names through fmt — and two trace snapshots a run they read
// 150/152/151/157/155/153/129/186 objects and 29.1/16.1/15.4/16.2/14.5/
// 12.8/12.9/28.8 KB. With every forcing allocating its scratch as well
// 158/173/176/
// 166/175/171/137/213 objects and 31.8/27.8/27.4/20.3/23.9/18.1/15.8/
// 47.5 KB; transposing the catalog's rows per query as well, 160/176/
// 178/167/176/173/138/216 objects and 39.9/40.0/35.4/24.3/32.1/30.2/
// 23.8/59.5 KB; as opaque closures over materialised groups 364/399/
// 416/177/283/172/172/500 objects and 40.0/58.8/60.7/29.6/55.3/42.0/25.4/
// 69.7 KB.
var sqlGateTemplates = []struct {
	name, sql      string
	objects, bytes float64
}{
	{"filter", "SELECT well, pressure FROM sensors WHERE pressure > 175.5 AND hour < 52", 71, 20000},
	{"group", "SELECT well, COUNT(*) AS n, AVG(pressure) AS p FROM sensors WHERE hour < 40 GROUP BY well", 81, 10100},
	{"having", "SELECT well, AVG(temperature) AS t FROM sensors GROUP BY well HAVING t > 68.5", 77, 9200},
	{"topn", "SELECT hour, flow FROM sensors WHERE well = 8 ORDER BY flow DESC LIMIT 10", 71, 8200},
	{"wordcount", "SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word LIMIT 5", 74, 7800},
	{"global", "SELECT COUNT(*) AS n, MAX(pressure) AS hi, MIN(flow) AS lo FROM sensors WHERE temperature < 73.0", 78, 8000},
	{"wordfilter", "SELECT word FROM words WHERE word = 'big'", 62, 7500},
	{"grouporder", "SELECT hour, SUM(flow) AS f, COUNT(*) AS n FROM sensors WHERE well < 12 GROUP BY hour HAVING n > 1 ORDER BY hour", 93, 14600},
}

// TestSQLAllocationGate is ROADMAP item 2's gate on the SQL path: a
// small query must not pay more for running on the column kernels than
// it paid as rows — neither in objects nor in bytes, template by
// template, so a regression on one shape cannot hide in the mean.
func TestSQLAllocationGate(t *testing.T) {
	cat, err := DefaultCatalog(500)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	const jobs = 20
	for _, tpl := range sqlGateTemplates {
		job := func() {
			if _, _, _, err := rheemql.Run(ctx, cat, tpl.sql); err != nil {
				t.Fatalf("%s: %v", tpl.name, err)
			}
		}
		job() // warm-up: pools, lazily built tables
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < jobs; i++ {
			job()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / jobs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
		t.Logf("%-10s %4.0f allocations, %6.0f bytes per query", tpl.name, objects, bytes)
		if objects > tpl.objects {
			t.Errorf("%s made %.0f allocations per query, gate is %.0f", tpl.name, objects, tpl.objects)
		}
		if bytes > tpl.bytes {
			t.Errorf("%s allocated %.0f bytes per query, gate is %.0f", tpl.name, bytes, tpl.bytes)
		}
	}
}

// builtinGate is what one job of each built-in past admission — build
// the plan, execute it, digest the result (runBuiltin), on a service
// configured like the repository benchmark's service-http workload and at
// that workload's sizes — may allocate: objects and bytes, pinned about
// four percent (in bytes, four percent and 280 bytes for a thread the
// runtime starts inside the window) above the most the columnar plans read over inputs
// generated as columns with their window scratch leased, on a control
// plane that allocates per plan and per atom, a flight recorder that
// builds a profile only when one is read, two-word data quanta, window
// scratch kept on a free list, a digest encoder that writes straight into
// its buffer, each input generated once per spec and shared by every
// job of it, a plan's per-operator state, an atom's exits and a run's
// platform counts in slices, and an optimizer whose 16-byte DP cells and
// other scratch are leased, a logical plan whose operators keep their
// inputs inline in 112 bytes, a run whose state is leased, a run
// whose telemetry is the run itself, handing its trace over, sorts without
// a reflect swapper, a union of column chains folded leg by leg where
// the legs stand and sorts on their key column
// (66 / 149–150 / 118 objects, 6.3 / 13.3–13.6 / 11.2 KB at
// GOMAXPROCS 1 to 4, twelve readings). With the sorts over records, as
// key/record pairs, they read 66 / 150 / 118 objects and 6.7 / 14.5 /
// 11.2 KB. With sort.SliceStable and every
// union's legs made into records and copied they read 70 / 153 / 136
// objects and 6.8 / 14.6 / 69.0 KB. With a tracer, closure and consumer slice apart from each
// run and its trace copied out they read 81 / 164 / 147 objects and
// 7.1 / 14.9 / 69.2 KB. With every operator carrying every kind's fields in 320
// bytes they read 81–82 / 164 / 147 objects and 7.9–8.0 / 16.1 / 71.3
// KB. With a slice per logical edge and the run's state made per
// Run they read 92 / 178 / 165–166 objects and 8.3–8.5 / 16.6–16.8 /
// 71.9–72.3 KB. With 88-byte DP cells
// and the optimizer's scratch made per call they read 97 / 183 / 170–171
// objects and 9.7–9.9 / 18.7 / 75.2–75.6 KB. With the execution plan's
// assignment and costs, the atom's exits and the run's occupancy in Go
// maps they read 109 / 195 / 182–183 objects and 11.8 / 20.7–20.9 /
// 76.8–77.1 KB. With every job generating its own input as well they
// read 113 / 203–204 / 185–186 objects and 77.6–77.8 / 185.3–186.1 /
// 78.8–79.3 KB: the input is 64 KB of words, 160 KB of readings. With the scratch in
// a sync.Pool they read 113–114 / 205–206 / 185–186 objects and 77.6–79.7
// / 192–203 / 78.8–80.2 KB: a 4 000-row scratch the collector took from
// the pool is 200 KB to make again, 10 KB a job over twenty, and the
// sensor job allocates enough for that to happen. With an object per
// field and per string in the digest as well they read 152 / 269–270 /
// 189 objects and 78.0–80.1 / 185–204 / 79.0–82.2 KB. With three-word quanta (a 24-byte Value and Record) the bytes
// read 78.6–79.8 / 196–217 / 107 KB. Building the
// physical plan an operator at a time and every profile twice they read
// 191 / 314–319 / 297 objects and 79.6–80.7 / 197–217 / 112 KB. With
// every forcing allocating its scratch they read 209 / 345 / 336 objects
// and 121 / 370 / 140 KB; over inputs generated as records and transposed
// per job 209 / 344 / 340 objects and 317 / 918 / 155 KB; as row UDFs over
// records generated one by one 12 200 / 12 286 / 2 037 objects and 0.70 /
// 1.76 / 0.14 MB.
var builtinGate = []struct{ objects, bytes float64 }{
	{69, 6_900},   // wordcount, n = 4 000
	{156, 14_500}, // sensor, n = 4 000
	{123, 12_000}, // fanout, 200 × 4
}

// TestBuiltinAllocationGate is ROADMAP item 2a's gate: the service's own
// workloads stay on the columnar forms — a record per row per operator, or
// per generated row, is thousands of objects above these pins.
func TestBuiltinAllocationGate(t *testing.T) {
	svc := benchService(t)
	const jobs = 20
	for i, pin := range builtinGate {
		spec := builtinGolden[i].spec
		runBuiltin(t, svc, spec) // warm-up: pools, the calibrator's first fold
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < jobs; j++ {
			runBuiltin(t, svc, spec)
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / jobs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / jobs
		t.Logf("%-10s %5.0f allocations, %7.0f bytes per job", spec.Workload, objects, bytes)
		if objects > pin.objects {
			t.Errorf("%s made %.0f allocations per job, gate is %.0f", spec.Workload, objects, pin.objects)
		}
		if bytes > pin.bytes {
			t.Errorf("%s allocated %.0f bytes per job, gate is %.0f", spec.Workload, bytes, pin.bytes)
		}
	}
}

// TestUnionBytesIndependentOfRows: the fanout built-in's union of column
// chains stays in columns. Its legs are folded where they stand, so a job
// over 8 200 rows allocates less than 2 bytes a row more than one over 200.
// While each leg was made into records and every two-way union copied them
// again, that difference was 430 bytes a row.
func TestUnionBytesIndependentOfRows(t *testing.T) {
	svc := benchService(t)
	const jobs = 20
	perJob := func(n int) float64 {
		spec := Spec{Kind: KindWorkload, Workload: WorkloadFanout, N: n, Branches: 4, Seed: 3}
		if _, platforms := runBuiltin(t, svc, spec); len(platforms) != 1 || platforms[0] != "java" {
			t.Fatalf("fanout over %d rows ran on %v, want java alone", n, platforms)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < jobs; j++ {
			runBuiltin(t, svc, spec)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / jobs
	}
	small, large := perJob(200), perJob(8200)
	perRow := (large - small) / 8000
	t.Logf("%.0f bytes a job over 200 rows, %.0f over 8 200: %.2f a row", small, large, perRow)
	if perRow >= 2 {
		t.Errorf("fanout allocates %.2f bytes per input row, want < 2", perRow)
	}
}

// TestTopNBytesIndependentOfRows: a top-n stays in columns until its rows
// leave. The sort collects the survivors' keys and positions in leased
// scratch and makes only the ten records the LIMIT keeps, so a query over
// 8 000 catalog rows allocates less than 2 bytes a row more than one over
// 500. While the sort's input was made into records and sorted as
// key/record pairs, the difference was 140 bytes a row.
func TestTopNBytesIndependentOfRows(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	const jobs, sql = 20, "SELECT hour, flow FROM sensors ORDER BY flow DESC LIMIT 10"
	perQuery := func(n int) float64 {
		cat, err := DefaultCatalog(n)
		if err != nil {
			t.Fatal(err)
		}
		job := func() {
			if recs, _, _, err := rheemql.Run(ctx, cat, sql); err != nil || len(recs) != 10 {
				t.Fatalf("over %d rows: %d rows, %v", n, len(recs), err)
			}
		}
		job() // warm-up: the scratch grows to the survivors once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < jobs; j++ {
			job()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / jobs
	}
	small, large := perQuery(500), perQuery(8000)
	perRow := (large - small) / 7500
	t.Logf("%.0f bytes a query over 500 rows, %.0f over 8 000: %.2f a row", small, large, perRow)
	if perRow >= 2 {
		t.Errorf("a top-n allocates %.2f bytes per input row, want < 2", perRow)
	}
}
