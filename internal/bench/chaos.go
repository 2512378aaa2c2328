package bench

import (
	"fmt"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

func init() {
	register("chaos", chaos)
}

// RunChaos executes the fan-out diamond with every map branch pinned
// to a fault-injected "chaos" platform (a wrapped java engine). When
// failAfter ≥ 0 the platform dies after that many successful
// executions, forcing the executor's retry → circuit-breaker →
// cross-platform failover path; a negative failAfter leaves the
// platform healthy, giving the clean baseline for the same plan. Each
// call builds a fresh registry: breaker state and fault schedules are
// per-run.
func RunChaos(branches, recs int, delay time.Duration, failAfter int) (*executor.Result, error) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		return nil, err
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		return nil, err
	}
	if _, err := relengine.Register(reg); err != nil {
		return nil, err
	}
	var opts fault.Options
	opts.ID = "chaos"
	if failAfter >= 0 {
		opts.Schedules = []fault.Schedule{fault.FailAfterN(failAfter, nil)}
	}
	if err := fault.Register(reg, fault.Wrap(javaengine.New(), opts), javaengine.ID); err != nil {
		return nil, err
	}

	pp, err := FanOutPlan(branches, recs, delay)
	if err != nil {
		return nil, err
	}
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			fa[op.ID] = "chaos"
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{
		DisableRules:      true,
		ForcedAssignments: fa,
	})
	if err != nil {
		return nil, err
	}
	return executor.Run(ep, reg, executor.Options{
		RetryBackoff: -1, // measure re-planning cost, not sleep time
	})
}

// chaos is experiment E9: the fault-tolerance overhead. The same
// diamond runs with a healthy branch platform and with one that dies
// mid-run; failover must keep the output identical, and the table
// shows what the recovery cost in retries, re-plans and wall time.
func chaos(cfg Config) ([]*Table, error) {
	branches, recs, delay := 8, 100, 2*time.Millisecond
	if cfg.Quick {
		recs, delay = 10, 500*time.Microsecond
	}
	t := &Table{
		Title: fmt.Sprintf("E9 — fault tolerance (%d branches × %s records on a dying platform)",
			branches, Count(recs)),
		Note:    "Every map branch starts on a fault-injected platform that dies after one execution; the executor retries, quarantines it (circuit breaker) and re-plans the rest on the survivors. Records are invariant.",
		Columns: []string{"scenario", "wall", "jobs", "retries", "failovers", "records"},
	}
	var cleanCount int
	for _, sc := range []struct {
		name      string
		failAfter int
	}{
		{"healthy platform", -1},
		{"killed after 1 atom", 1},
	} {
		cfg.logf("chaos: %s", sc.name)
		res, err := RunChaos(branches, recs, delay, sc.failAfter)
		if err != nil {
			return nil, err
		}
		if sc.failAfter < 0 {
			cleanCount = len(res.Records)
		} else {
			if res.Failovers == 0 {
				return nil, fmt.Errorf("chaos: platform died but no failover happened")
			}
			if len(res.Records) != cleanCount {
				return nil, fmt.Errorf("chaos: failover changed the result: %d records vs %d clean",
					len(res.Records), cleanCount)
			}
		}
		t.AddRow(sc.name, Dur(res.Metrics.Wall), fmt.Sprint(res.Metrics.Jobs),
			fmt.Sprint(res.Metrics.Retries), fmt.Sprint(res.Failovers), Count(len(res.Records)))
	}
	return []*Table{t}, nil
}
