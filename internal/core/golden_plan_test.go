package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// goldenPlans is what the optimizer decided for every conformance plan
// under every option variant below, recorded with the map-based DP and
// the map-based path search of the commit before the dense rewrite. To
// re-record after a deliberate cost-model or plan change, delete the
// file and run the test once: it writes the file and fails.
const goldenPlans = "testdata/optimizer_plans.golden"

// renderCost prints every component in nanoseconds: Cost.String rounds
// through time.Duration's printer, which is exact too, but one integer
// per component diffs better.
func renderCost(c cost.Cost) string {
	return fmt.Sprintf("cpu=%d io=%d net=%d startup=%d", c.CPU, c.IO, c.Net, c.Startup)
}

// renderPlan writes everything the issue's differential names:
// ExecutionPlan.String(), Assignment, Estimated, RawEstimated, OpCosts
// (and their raw twins), recursing into loop bodies.
func renderPlan(sb *strings.Builder, indent string, ep *optimizer.ExecutionPlan) {
	for _, line := range strings.Split(strings.TrimRight(ep.String(), "\n"), "\n") {
		fmt.Fprintf(sb, "%s| %s\n", indent, line)
	}
	fmt.Fprintf(sb, "%sestimated %s\n", indent, renderCost(ep.Estimated))
	fmt.Fprintf(sb, "%sraw       %s\n", indent, renderCost(ep.RawEstimated))
	// Costs recorded at an ID the plan assigns no platform are a defect
	// the golden file would show as an extra line.
	stray, rawStray := 0, 0
	for id, pl := range ep.Assignment {
		if pl != "" {
			fmt.Fprintf(sb, "%sop %d @%s cost{%s} raw{%s}\n", indent, id, pl,
				renderCost(ep.OpCosts[id]), renderCost(ep.RawOpCosts[id]))
			continue
		}
		if ep.OpCosts[id] != (cost.Cost{}) {
			stray++
		}
		if ep.RawOpCosts[id] != (cost.Cost{}) {
			rawStray++
		}
	}
	if stray > 0 || rawStray > 0 {
		fmt.Fprintf(sb, "%sunassigned op costs: %d/%d\n", indent, stray, rawStray)
	}
	loops := make([]int, 0, len(ep.LoopBodies))
	for id := range ep.LoopBodies {
		loops = append(loops, id)
	}
	sort.Ints(loops)
	for _, id := range loops {
		fmt.Fprintf(sb, "%sbody of op %d:\n", indent, id)
		renderPlan(sb, indent+"  ", ep.LoopBodies[id])
	}
}

// goldenVariant is one optimizer.Options shape; opts sees the freshly
// translated plan because forced assignments are keyed by operator ID.
type goldenVariant struct {
	name string
	opts func(pp *physical.Plan) optimizer.Options
}

func goldenVariants(t *testing.T) []goldenVariant {
	vs := []goldenVariant{
		{"free", func(*physical.Plan) optimizer.Options { return optimizer.Options{} }},
		{"no-rules", func(*physical.Plan) optimizer.Options { return optimizer.Options{DisableRules: true} }},
	}
	for _, pl := range confPlatforms {
		pl := pl
		vs = append(vs, goldenVariant{"fixed-" + string(pl), func(*physical.Plan) optimizer.Options {
			return optimizer.Options{FixedPlatform: pl}
		}})
	}
	cal := warmedConfCalibrator(t)
	return append(vs,
		// The conformance suite's own pinning: sources on the feeder,
		// everything else (loop bodies included) on the target.
		goldenVariant{"forced", func(pp *physical.Plan) optimizer.Options {
			fa := map[int]engine.PlatformID{}
			forEachOp(pp, func(op *physical.Operator) {
				if op.Kind() == plan.KindSource {
					fa[op.ID] = javaengine.ID
				} else {
					fa[op.ID] = sparksim.ID
				}
			})
			return optimizer.Options{DisableRules: true, ForcedAssignments: fa}
		}},
		goldenVariant{"exclude-java", func(*physical.Plan) optimizer.Options {
			return optimizer.Options{ExcludePlatforms: map[engine.PlatformID]bool{javaengine.ID: true}}
		}},
		goldenVariant{"exclude-java-frozen-sources", func(pp *physical.Plan) optimizer.Options {
			// The failover shape: sources already ran on the excluded
			// platform and stay there, frozen.
			fa, frozen := map[int]engine.PlatformID{}, map[int]bool{}
			for _, op := range pp.Ops {
				if op.Kind() == plan.KindSource {
					fa[op.ID], frozen[op.ID] = javaengine.ID, true
				}
			}
			return optimizer.Options{
				ExcludePlatforms:  map[engine.PlatformID]bool{javaengine.ID: true},
				ForcedAssignments: fa, Frozen: frozen,
				CardOverrides: map[int]int64{pp.Ops[0].ID: 5_000_000},
			}
		}},
		goldenVariant{"big-input", func(pp *physical.Plan) optimizer.Options {
			ov := map[int]int64{}
			for _, op := range pp.Ops {
				if op.Kind() == plan.KindSource {
					ov[op.ID] = 2_000_000
				}
			}
			return optimizer.Options{CardOverrides: ov}
		}},
		goldenVariant{"calibrated", func(*physical.Plan) optimizer.Options {
			return optimizer.Options{Calibration: cal}
		}},
	)
}

// renderGoldenPlans optimizes every battery case under every variant on
// a fresh three-platform registry and renders the decisions.
func renderGoldenPlans(t *testing.T) string {
	reg := confRegistry(t)
	variants := goldenVariants(t)
	var sb strings.Builder
	for _, c := range conformanceBattery() {
		for _, v := range variants {
			pp, err := physical.FromLogical(c.plan("golden-"+c.name, cell{}))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "== %s / %s\n", c.name, v.name)
			ep, err := optimizer.Optimize(pp, reg, v.opts(pp))
			if err != nil {
				fmt.Fprintf(&sb, "error: %v\n", err)
				continue
			}
			renderPlan(&sb, "", ep)
		}
	}
	return sb.String()
}

// TestOptimizerGoldenPlans is the optimizer's differential test: the
// dense DP, the snapshot registries and the allocation-free path search
// must reproduce, byte for byte, the plans, assignments, algorithms and
// cost vectors the map-based code produced for the conformance battery
// × {free, rules off, each platform fixed, forced assignments, an
// excluded platform with and without frozen sources, large inputs, a
// hostile warm calibrator} — loop bodies included.
func TestOptimizerGoldenPlans(t *testing.T) {
	got := renderGoldenPlans(t)
	want, err := os.ReadFile(goldenPlans)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPlans), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlans, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded %d bytes from this tree; review and commit it", goldenPlans, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("plans diverge from %s at line %d (%s):\n got: %s\nwant: %s", goldenPlans, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("plans diverge from %s in length: %d lines, want %d", goldenPlans, len(gl), len(wl))
}
