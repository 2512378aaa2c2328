package bench

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"rheem/internal/apps/cleaning"
	"rheem/internal/data"
)

// Floors of TestFigure3Shape's two speed-ups, each at most half the
// lowest of 30 readings in simulated time on a shared 2-core Xeon: the
// pipeline beat the single Detect UDF by 5.3–9.2× at 4 000 rows, and
// IEJoin the nested loop by 7.2–12.1× at 1 000 rows. Under -race both
// read higher (about 60× and 35×): the quadratic arms' measured host
// time is what slows down.
const fig3UDFFloor, fig3IEJoinFloor = 2.5, 3.5

// TestFigure3Shape is the paper's Figure 3 and E4 on the arms the
// experiments tabulate, every arm measured, none extrapolated: Figure
// 3's rule over E2/E3's data at 2 000 and 4 000 rows, and E4's DC over
// E4's data at 500 and 1 000 rows with 1 % errors (at E4's 0.2 % these
// sizes hold no violation to agree on). It checks that
//   - the pipeline beats the single Detect UDF by fig3UDFFloor at 4 000
//     rows, by more than at 2 000;
//   - BigDansing beats the self-join and NADEEF-style baselines at 4 000
//     rows, each by more than at 2 000;
//   - IEJoin beats the nested loop by fig3IEJoinFloor at 1 000 rows, by
//     more than at 500;
//   - every arm finds the same non-empty violations at every size.
func TestFigure3Shape(t *testing.T) {
	a, err := newArms(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// sweep runs arms over each size's dataset and returns their modelled
	// times, indexed by size, then by arm. A symmetric rule's pairs are
	// compared unordered.
	sweep := func(sizes []int, dataset func(int) []data.Record, symmetric bool, arms ...arm) [][]time.Duration {
		t.Helper()
		out := make([][]time.Duration, len(sizes))
		for i, n := range sizes {
			recs := dataset(n)
			var want []cleaning.Violation
			for j, run := range arms {
				vs, rep, err := run(recs)
				if err != nil {
					t.Fatal(err)
				}
				vs = canonical(vs, symmetric)
				if j == 0 {
					want = vs
					if len(want) == 0 {
						t.Fatalf("at %d rows the first arm finds no violations", n)
					}
				} else if !slices.Equal(vs, want) {
					t.Errorf("at %d rows arm %d finds %d violations, not arm 0's %d", n, j, len(vs), len(want))
				}
				out[i] = append(out[i], rep.Metrics.Sim)
			}
		}
		return out
	}
	// beats checks that arm 0 beats arm slow by at least floor at the
	// larger size, and by more there than at the smaller one.
	beats := func(what string, sizes []int, times [][]time.Duration, slow int, floor float64) {
		t.Helper()
		lo := float64(times[0][slow]) / float64(times[0][0])
		hi := float64(times[1][slow]) / float64(times[1][0])
		if hi < floor || hi <= lo {
			t.Errorf("%s by %.2f× at %d rows and %.2f× at %d, want ≥ %.1f× and growing", what, lo, sizes[0], hi, sizes[1], floor)
		}
	}

	fdRows := []int{2_000, 4_000}
	fd := sweep(fdRows, fig3Tax, true, a.pipeline, a.udf, a.selfJoin, a.nadeef)
	t.Logf("pipeline, UDF, self-join, NADEEF-style at %v rows: %v", fdRows, fd)
	beats("the pipeline beats the single Detect UDF", fdRows, fd, 1, fig3UDFFloor)
	beats("BigDansing beats the self-join baseline", fdRows, fd, 2, 1)
	beats("BigDansing beats the NADEEF-style baseline", fdRows, fd, 3, 1)

	dcRows := []int{500, 1_000}
	dc := sweep(dcRows, func(n int) []data.Record { return dcTax(n, 0.01) }, false, a.ieJoin, a.nestedLoop)
	t.Logf("IEJoin, nested loop at %v rows: %v", dcRows, dc)
	beats("IEJoin beats the nested loop", dcRows, dc, 1, fig3IEJoinFloor)
}

// canonical sorts violations, with a symmetric rule's pairs in id
// order: the pipeline reports an FD's pair in block order, the
// baselines in id order.
func canonical(vs []cleaning.Violation, symmetric bool) []cleaning.Violation {
	for i, v := range vs {
		if symmetric && v.Left > v.Right {
			vs[i].Left, vs[i].Right = v.Right, v.Left
		}
	}
	slices.SortFunc(vs, func(x, y cleaning.Violation) int {
		return cmp.Or(cmp.Compare(x.Rule, y.Rule), cmp.Compare(x.Left, y.Left), cmp.Compare(x.Right, y.Right))
	})
	return vs
}
