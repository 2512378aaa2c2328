package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, made by the benchmark around
// the layer's public function. Spans of one job share Job; Parent is
// the ID of the span that caused it (0 for the job's root span).
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends. A recorder belongs to one client goroutine — the
// service-http clients each hold their own and merge afterwards. A nil
// recorder records nothing, so the same job code runs traced and
// untraced.
type recorder struct {
	epoch time.Time
	base  int // ID offset, so merged recorders keep unique IDs
	spans []span
}

func newRecorder(epoch time.Time, base int) *recorder {
	return &recorder{epoch: epoch, base: base}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(job, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{Job: job, Parent: parent, Name: name})
	sp := &r.spans[len(r.spans)-1]
	sp.ID = r.base + len(r.spans)
	sp.Start = int64(time.Since(r.epoch))
	return sp.ID
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-r.base-1].End = int64(time.Since(r.epoch))
}

// add records a span the program itself timed (an executor atom span,
// a JobStatus timestamp pair).
func (r *recorder) add(job, parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Job: job, ID: r.base + len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// rootSpan names every job's root span.
const rootSpan = "job"

// selfTimes computes, per job, each span name's self time: the span's
// duration minus the part of that interval its child spans cover
// (children may overlap each other — the union counts once).
func selfTimes(spans []span) map[int]map[string]int64 {
	children := make(map[int][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := map[int]map[string]int64{}
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			s, e := max(spans[k].Start, edge), min(spans[k].End, sp.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		byName := out[sp.Job]
		if byName == nil {
			byName = map[string]int64{}
			out[sp.Job] = byName
		}
		byName[sp.Name] += (sp.End - sp.Start) - covered
	}
	return out
}

// attributedShare is the share of a job's wall time the layer spans
// account for — everything under the root span except the root's own
// self time — as the median over jobs, so that one job descheduled
// between two spans does not decide it.
func attributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var shares []float64
	for _, sp := range spans {
		if sp.Name == rootSpan && sp.End > sp.Start {
			shares = append(shares, 1-float64(self[sp.Job][rootSpan])/float64(sp.End-sp.Start))
		}
	}
	return medianOf(shares)
}
