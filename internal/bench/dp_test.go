package bench

import (
	"fmt"
	"testing"
	"time"

	"rheem/internal/apps/rheemql"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/service"
)

// TestDPMatchesBruteForce is ROADMAP 24d's fence, in modelled time only:
// over E5's pipeline on either side of its platform flip, xplat-udf's
// shape at its quick size, the eight small-sql templates and colscan at
// 100 000 rows, every plan of at most seven operators is planned once
// under every feasible pinning of its operators to platforms, and the
// DP's free choice must cost exactly the cheapest of them. Rules are off
// on both sides, so both price the same operators.
func TestDPMatchesBruteForce(t *testing.T) {
	ctx, err := newCtx(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	reg := ctx.Registry()

	corpus := map[string]*plan.Plan{}
	for _, n := range []int64{100_000, 200_000} {
		p, err := sensorFeatures(ctx.NewJob("e5").ReadSource("readings", plan.Collection(nil), n)).Plan()
		if err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("e5/%d", n)] = p
	}
	corpus["xplat-udf"] = xplatShape(6_000)
	corpus["colscan"] = colscanShape(100_000)
	cat, err := service.DefaultCatalog(500)
	if err != nil {
		t.Fatal(err)
	}
	for name, sql := range smallSQL {
		q, err := rheemql.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := rheemql.Compile(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus["small-sql/"+name] = c.Plan
	}

	platforms := reg.PlatformIDs()
	checked := 0
	for name, lp := range corpus {
		estimate := func(fa map[int]engine.PlatformID) (time.Duration, bool) {
			pp, err := physical.FromLogical(lp) // Optimize rewrites what it plans
			if err != nil {
				t.Fatal(err)
			}
			ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
			if err != nil {
				return 0, false // a pinning no mapping serves
			}
			return ep.Estimated.Total(), true
		}
		pp, err := physical.FromLogical(lp)
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Ops) > 7 {
			continue
		}
		free, ok := estimate(nil)
		if !ok {
			t.Fatalf("%s: free choice found no plan", name)
		}
		best, pinnings := time.Duration(-1), 0
		pick := make([]int, len(pp.Ops))
		for {
			fa := make(map[int]engine.PlatformID, len(pick))
			for i, op := range pp.Ops {
				fa[op.ID] = platforms[pick[i]]
			}
			if c, ok := estimate(fa); ok {
				pinnings++
				if best < 0 || c < best {
					best = c
				}
			}
			i := 0
			for ; i < len(pick) && pick[i] == len(platforms)-1; i++ {
				pick[i] = 0
			}
			if i == len(pick) {
				break
			}
			pick[i]++
		}
		t.Logf("%-20s %d operators: %d pinnings, the cheapest %v", name, len(pp.Ops), pinnings, best)
		if free != best {
			t.Errorf("%s (%d operators): the DP's free choice costs %v, the cheapest of %d pinnings %v", name, len(pp.Ops), free, pinnings, best)
		}
		checked++
	}
	if checked < len(corpus)-2 {
		t.Errorf("only %d of %d plans have at most seven operators", checked, len(corpus))
	}
}

// smallSQL is the small-sql benchmark workload's eight templates
// (benchmarks/e2e/sqlref.go) with their literals fixed.
var smallSQL = map[string]string{
	"filter":     "SELECT well, pressure FROM sensors WHERE pressure > 175.5 AND hour < 48",
	"group":      "SELECT well, COUNT(*) AS n, AVG(pressure) AS p FROM sensors WHERE hour < 32 GROUP BY well",
	"having":     "SELECT well, AVG(temperature) AS t FROM sensors GROUP BY well HAVING t > 64.5",
	"topn":       "SELECT hour, flow FROM sensors WHERE well = 2 ORDER BY flow DESC LIMIT 10",
	"wordcount":  "SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word LIMIT 3",
	"global":     "SELECT COUNT(*) AS n, MAX(pressure) AS hi, MIN(flow) AS lo FROM sensors WHERE temperature < 65.0",
	"wordfilter": "SELECT word FROM words WHERE word = 'alpha'",
	"grouporder": "SELECT hour, SUM(flow) AS f, COUNT(*) AS n FROM sensors WHERE well < 8 GROUP BY hour HAVING n > 1 ORDER BY hour",
}

// xplatShape is the xplat-udf workload's plan (benchmarks/e2e/xplat.go)
// over rows claimed readings: filter, normalise, sum per well, feature
// vector, sort by well.
func xplatShape(rows int64) *plan.Plan {
	id := func(r data.Record) (data.Record, error) { return r, nil }
	b := plan.NewBuilder("xplat")
	src := b.Source("readings", plan.Collection(nil))
	src.CardHint = rows
	kept := b.Filter(src, func(data.Record) (bool, error) { return true, nil })
	kept.Selectivity = 0.875
	agg := b.ReduceByKey(b.Map(kept, id), plan.FieldKey(0), func(a, _ data.Record) (data.Record, error) { return a, nil })
	b.Collect(b.Sort(b.Map(agg, id), plan.FieldKey(0), false))
	return b.MustBuild()
}

// colscanShape is the colscan-1m workload's plan (benchmarks/e2e/colscan.go)
// over rows claimed rows: a hinted filter, projection and sum.
func colscanShape(rows int64) *plan.Plan {
	b := plan.NewBuilder("colscan")
	s := b.Source("rows", plan.Collection(nil))
	s.CardHint = rows
	f := b.FilterWhere(s, 1, plan.Less, data.Int(500))
	b.Collect(b.AggregateCols(b.ProjectCols(f, 1), plan.AggSum))
	return b.MustBuild()
}
