package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"rheem/internal/core/trace"
)

// perfetto event, Chrome trace-event format: one complete "X" event per
// span plus "M" metadata events naming the lanes. Args is a map so its
// keys marshal sorted — the whole export is deterministic for a given
// record.
type pevent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// laneGroup is one named block of trace lanes: the service phases, or
// one platform's spans. Overlapping spans within a group spread across
// as many lanes as the run's true concurrency needed.
type laneGroup struct {
	name  string
	spans []*trace.Span
}

// WritePerfetto renders the record as Chrome-trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Spans are grouped
// into a "service" lane block (admission/queue/dispatch) plus one block
// per platform; timestamps are microseconds relative to the earliest
// span start. Output bytes are deterministic.
func (r *Record) WritePerfetto(w io.Writer) error {
	groups := map[string]*laneGroup{}
	var order []string
	add := func(key string, sp *trace.Span) {
		g := groups[key]
		if g == nil {
			g = &laneGroup{name: key}
			groups[key] = g
			order = append(order, key)
		}
		g.spans = append(g.spans, sp)
	}
	var base time.Time
	for _, live := range r.Spans {
		// Wall-clock readings only: a span loses its monotonic reading
		// when persisted, and Sub over a mix of the two can land on the
		// other side of a microsecond boundary, so the export of one
		// record would differ before and after a restart.
		wall := *live
		wall.StartedAt, wall.EndedAt = wall.StartedAt.Round(0), wall.EndedAt.Round(0)
		sp := &wall
		if base.IsZero() || sp.StartedAt.Before(base) {
			base = sp.StartedAt
		}
		switch sp.Kind {
		case trace.KindAdmission, trace.KindQueue, trace.KindDispatch:
			add("service", sp)
		default:
			add("platform "+string(sp.Platform), sp)
		}
	}
	// Service lanes first, then platforms alphabetically.
	sort.Slice(order, func(i, j int) bool {
		if (order[i] == "service") != (order[j] == "service") {
			return order[i] == "service"
		}
		return order[i] < order[j]
	})

	var events []pevent
	tid := 0
	for _, key := range order {
		g := groups[key]
		sort.Slice(g.spans, func(i, j int) bool {
			a, b := g.spans[i], g.spans[j]
			if !a.StartedAt.Equal(b.StartedAt) {
				return a.StartedAt.Before(b.StartedAt)
			}
			return a.ID < b.ID
		})
		// Greedy lane assignment: a span takes the first lane whose last
		// occupant ended by the span's start.
		var laneEnds []time.Time
		laneTids := []int{}
		for _, sp := range g.spans {
			lane := -1
			for l, end := range laneEnds {
				if !end.After(sp.StartedAt) {
					lane = l
					break
				}
			}
			if lane == -1 {
				tid++
				laneEnds = append(laneEnds, time.Time{})
				laneTids = append(laneTids, tid)
				lane = len(laneEnds) - 1
				suffix := ""
				if lane > 0 {
					suffix = fmt.Sprintf(" #%d", lane+1)
				}
				events = append(events, pevent{
					Name: "thread_name", Ph: "M", Pid: 1, Tid: laneTids[lane],
					Args: map[string]any{"name": g.name + suffix},
				})
			}
			laneEnds[lane] = sp.EndedAt
			dur := sp.EndedAt.Sub(sp.StartedAt).Microseconds()
			if dur < 1 {
				dur = 1 // Perfetto drops zero-width slices
			}
			events = append(events, pevent{
				Name: sp.Name,
				Cat:  sp.Kind,
				Ph:   "X",
				Ts:   sp.StartedAt.Sub(base).Microseconds(),
				Dur:  dur,
				Pid:  1,
				Tid:  laneTids[lane],
				Args: spanArgs(sp),
			})
		}
	}

	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("profile: encoding trace event %d: %w", i, err)
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

func spanArgs(sp *trace.Span) map[string]any {
	args := map[string]any{
		"span_id": sp.ID,
		"plan":    sp.Plan,
	}
	switch sp.Kind {
	case trace.KindAdmission, trace.KindQueue, trace.KindDispatch:
		args["job"] = sp.Job
		args["tenant"] = sp.Tenant
	default:
		args["atom_id"] = sp.AtomID
		args["queue_wait_ns"] = int64(sp.QueueWait)
		if sp.Iteration >= 0 {
			args["iteration"] = sp.Iteration
		}
		if sp.Shard >= 0 {
			args["shard"] = sp.Shard
		}
		if sp.Retries > 0 {
			args["retries"] = sp.Retries
		}
		if sp.ConvTime > 0 {
			args["conv_ns"] = int64(sp.ConvTime)
		}
		for f, n := range sp.InFormats {
			args["in_format_"+f] = n
		}
	}
	if sp.Err != "" {
		args["error"] = sp.Err
	}
	return args
}
