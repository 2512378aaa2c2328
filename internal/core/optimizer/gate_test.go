package optimizer_test

import (
	"runtime"
	"testing"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/core/channel"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/service"
)

// sqlTemplates are the eight RheemQL shapes of the small-sql benchmark
// workload (benchmarks/e2e/sqlref.go) with their literals fixed.
var sqlTemplates = []struct{ name, sql string }{
	{"filter", "SELECT well, pressure FROM sensors WHERE pressure > 175.5 AND hour < 48"},
	{"group", "SELECT well, COUNT(*) AS n, AVG(pressure) AS p FROM sensors WHERE hour < 32 GROUP BY well"},
	{"having", "SELECT well, AVG(temperature) AS t FROM sensors GROUP BY well HAVING t > 64.5"},
	{"topn", "SELECT hour, flow FROM sensors WHERE well = 2 ORDER BY flow DESC LIMIT 10"},
	{"wordcount", "SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word LIMIT 3"},
	{"global", "SELECT COUNT(*) AS n, MAX(pressure) AS hi, MIN(flow) AS lo FROM sensors WHERE temperature < 65.0"},
	{"wordfilter", "SELECT word FROM words WHERE word = 'alpha'"},
	{"grouporder", "SELECT hour, SUM(flow) AS f, COUNT(*) AS n FROM sensors WHERE well < 8 GROUP BY hour HAVING n > 1 ORDER BY hour"},
}

// TestOptimizeAllocationGate is ROADMAP item 6's "cheap to ask" gate,
// enforced where `go test ./...` runs it: planning one of the eight
// small-sql templates on the default three-platform registry — rules,
// estimates, DP, atom split, from a freshly translated physical plan the
// way Context.Execute hands it over — may allocate what it returns (the
// plan's per-operator slices, estimates, atoms) and little else, and asking the
// conversion graph for a path's cost allocates nothing. A map per DP
// cell or a slice per path search shows up here as a multiple of the
// limit.
func TestOptimizeAllocationGate(t *testing.T) {
	const (
		runs = 20
		// Measured at 9 on every template, pinned one above: the plan's
		// assignment and costs are slices by operator ID, the DP's
		// 16-byte cells and the atom split's bit rows are scratch leased
		// from a free list, and no atom label costs a string per operator
		// (14 with the scratch made per call in two backing arrays and
		// four more slices, 20 with the assignment and costs in Go maps
		// sized as tables, 27–30 before that, 188–298 before the dense DP).
		limit = 10
		// Bytes read 896–1 127 per Optimize over 20 readings a template at
		// GOMAXPROCS 1 to 4, pinned 4 % above the most; 2.3–3.2 KB while
		// every DP cell was 88 bytes and the scratch was made per call.
		bytesLimit = 1170
	)
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	reg := ctx.Registry()
	cat, err := service.DefaultCatalog(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range sqlTemplates {
		q, err := rheemql.Parse(tpl.sql)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		c, err := rheemql.Compile(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		// Optimize rewrites the physical plan in place, so every measured
		// call gets its own fresh translation (AllocsPerRun makes one
		// warm-up call on top of runs).
		fresh := make([]*physical.Plan, runs+1)
		for i := range fresh {
			if fresh[i], err = physical.FromLogical(c.Plan); err != nil {
				t.Fatalf("%s: %v", tpl.name, err)
			}
		}
		next := 0
		var before, after runtime.MemStats
		got := testing.AllocsPerRun(runs, func() {
			if next == 1 { // past the warm-up call
				runtime.ReadMemStats(&before)
			}
			pp := fresh[next]
			next++
			if _, err := optimizer.Optimize(pp, reg, optimizer.Options{}); err != nil {
				t.Fatalf("%s: %v", tpl.name, err)
			}
		})
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%-10s %d ops: %.0f allocations, %.0f bytes per Optimize", tpl.name, len(fresh[0].Ops), got, bytes)
		if got > limit {
			t.Errorf("%s: Optimize made %.0f allocations, gate is %d", tpl.name, got, limit)
		}
		if bytes > bytesLimit {
			t.Errorf("%s: Optimize allocated %.0f bytes, gate is %d", tpl.name, bytes, bytesLimit)
		}
	}

	formats := reg.Channels().Formats()
	var sink int64
	got := testing.AllocsPerRun(runs, func() {
		for _, from := range formats {
			for _, to := range formats {
				c, _ := reg.Channels().PathCost(from, to, 1<<20)
				sink += int64(c)
			}
		}
		c, _ := reg.Channels().PathCost(channel.Collection, "no-such-format", 1<<20)
		sink += int64(c)
	})
	if got != 0 {
		t.Errorf("PathCost over %d formats made %.0f allocations per sweep, gate is 0", len(formats), got)
	}
}
