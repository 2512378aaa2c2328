// Package profile is the run flight recorder: it folds one run's span
// trace into a Profile — critical path over the span DAG, time
// attribution split into queue-wait/compute/conversion/retry per
// platform and per operator, top-N slowest atoms — and exports any
// recorded run as Chrome-trace-event (Perfetto) JSON. The paper's freedom argument rests on knowing *where* a
// cross-platform plan spends its time; aggregates (the metrics Hub)
// answer that for the fleet, this package answers it for a single run.
//
// A Profile is computed once, when the run is recorded: the critical
// path needs each span's task-atom structure (Span.Atom), which is not
// serialized, so the analysis cannot be redone from persisted spans.
// Everything the Profile derives is plain serializable data, and a
// persisted Record reproduces its profile and Perfetto export
// byte-identically after a restart.
package profile

import (
	"sort"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/trace"
)

// Schema versions the persisted profile/record JSON.
const Schema = 1

// TopN is how many slowest atoms a profile retains.
const TopN = 10

// Buckets splits time into the four costs the cross-platform trade-off
// turns on: scheduler queueing, useful platform compute, inter-platform
// data conversion, and wasted retry work. QueueWait, Compute and Retry
// are measured host time; Conv is the channel registry's modelled
// movement time (the executor charges conversions in sim time).
type Buckets struct {
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ComputeNS   int64 `json:"compute_ns"`
	ConvNS      int64 `json:"conv_ns"`
	RetryNS     int64 `json:"retry_ns"`
}

func (b *Buckets) add(o Buckets) {
	b.QueueWaitNS += o.QueueWaitNS
	b.ComputeNS += o.ComputeNS
	b.ConvNS += o.ConvNS
	b.RetryNS += o.RetryNS
}

// bucketsOf attributes one atom span's time. Successful attempts are
// compute, failed attempts are retry waste; a span with no recorded
// attempts (synthetic test spans) charges its whole wall to compute.
func bucketsOf(sp *trace.Span) Buckets {
	b := Buckets{QueueWaitNS: int64(sp.QueueWait), ConvNS: int64(sp.ConvTime)}
	if len(sp.Attempts) == 0 {
		b.ComputeNS = int64(sp.Wall)
		return b
	}
	for _, at := range sp.Attempts {
		if at.Err == "" {
			b.ComputeNS += int64(at.Wall)
		} else {
			b.RetryNS += int64(at.Wall)
		}
	}
	return b
}

// PlatformProfile is a platform's share of the run.
type PlatformProfile struct {
	Platform string `json:"platform"`
	Atoms    int    `json:"atoms"`
	Buckets
}

// OperatorProfile attributes time to one operator chain on one
// platform (a failover run shows the same chain on both platforms).
type OperatorProfile struct {
	Name     string `json:"name"`
	Platform string `json:"platform"`
	Spans    int    `json:"spans"`
	Buckets
}

// PathStep is one span on the critical path, in execution order.
type PathStep struct {
	SpanID      int    `json:"span_id"`
	AtomID      int    `json:"atom_id"`
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Platform    string `json:"platform,omitempty"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	WallNS      int64  `json:"wall_ns"`
}

// AtomSummary is one row of the top-N slowest atoms table.
type AtomSummary struct {
	SpanID      int    `json:"span_id"`
	AtomID      int    `json:"atom_id"`
	Name        string `json:"name"`
	Platform    string `json:"platform,omitempty"`
	Iteration   int    `json:"iteration"`
	WallNS      int64  `json:"wall_ns"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	ConvNS      int64  `json:"conv_ns"`
	Retries     int    `json:"retries"`
}

// Phase is one service-layer span (admission, queue, dispatch) of the
// job that owned this run — present only on runs annotated by the job
// service.
type Phase struct {
	Kind   string `json:"kind"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	WallNS int64  `json:"wall_ns"`
}

// Profile is the analyzed form of one run's trace.
type Profile struct {
	Schema    int       `json:"schema"`
	RunID     int64     `json:"run_id"`
	Name      string    `json:"name"`
	StartedAt time.Time `json:"started_at"`
	EndedAt   time.Time `json:"ended_at"`
	// WallNS is the run's end-to-end wall clock (EndedAt − StartedAt).
	WallNS int64  `json:"wall_ns"`
	Err    string `json:"error,omitempty"`

	Spans int `json:"spans"`
	Atoms int `json:"atoms"`

	// Total and its per-platform/per-operator splits attribute atom-span
	// time (all iterations; loop spans excluded so nothing is
	// double-counted).
	Total     Buckets           `json:"total"`
	Platforms []PlatformProfile `json:"platforms"`
	Operators []OperatorProfile `json:"operators"`

	// CriticalPath is the longest dependency chain through the
	// top-level span DAG, each step costing its queue wait plus wall.
	// CriticalPathNS ≤ WallNS; equality means a fully serial run.
	CriticalPathNS int64      `json:"critical_path_ns"`
	CriticalPath   []PathStep `json:"critical_path"`

	TopAtoms []AtomSummary `json:"top_atoms"`
	Phases   []Phase       `json:"phases,omitempty"`

	// Formats aggregates the executor's per-consumer channel format
	// choice (span in_formats) across the run's atoms.
	Formats map[string]int `json:"formats,omitempty"`
}

// Build analyzes one run's spans into a Profile. Spans may carry their
// Atom pointers (live traces do); persisted spans cannot, so Build is
// called once at record time and the result is stored alongside the
// spans.
func Build(runID int64, name string, started, ended time.Time, runErr string, spans []*trace.Span) *Profile {
	p := &Profile{
		Schema:    Schema,
		RunID:     runID,
		Name:      name,
		StartedAt: started,
		EndedAt:   ended,
		WallNS:    int64(ended.Sub(started)),
		Err:       runErr,
		Spans:     len(spans),
	}
	if p.WallNS < 0 {
		p.WallNS = 0
	}

	platforms := map[string]*PlatformProfile{}
	type opKey struct{ name, platform string }
	operators := map[opKey]*OperatorProfile{}
	var atoms []*trace.Span
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindAtom:
			p.Atoms++
			atoms = append(atoms, sp)
			b := bucketsOf(sp)
			p.Total.add(b)
			pl := string(sp.Platform)
			pp := platforms[pl]
			if pp == nil {
				pp = &PlatformProfile{Platform: pl}
				platforms[pl] = pp
			}
			pp.Atoms++
			pp.Buckets.add(b)
			k := opKey{sp.Name, pl}
			op := operators[k]
			if op == nil {
				op = &OperatorProfile{Name: sp.Name, Platform: pl}
				operators[k] = op
			}
			op.Spans++
			op.Buckets.add(b)
			for f, n := range sp.InFormats {
				if p.Formats == nil {
					p.Formats = map[string]int{}
				}
				p.Formats[f] += n
			}
		case trace.KindAdmission, trace.KindQueue, trace.KindDispatch:
			p.Phases = append(p.Phases, Phase{
				Kind: sp.Kind, Job: sp.Job, Tenant: sp.Tenant, WallNS: int64(sp.Wall),
			})
		}
	}
	for _, pp := range platforms {
		p.Platforms = append(p.Platforms, *pp)
	}
	sort.Slice(p.Platforms, func(i, j int) bool { return p.Platforms[i].Platform < p.Platforms[j].Platform })
	for _, op := range operators {
		p.Operators = append(p.Operators, *op)
	}
	sort.Slice(p.Operators, func(i, j int) bool {
		a, b := p.Operators[i], p.Operators[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Platform < b.Platform
	})
	sort.Slice(p.Phases, func(i, j int) bool {
		return phaseOrder(p.Phases[i].Kind) < phaseOrder(p.Phases[j].Kind)
	})

	p.CriticalPathNS, p.CriticalPath = criticalPath(spans)
	p.TopAtoms = topAtoms(atoms)
	return p
}

func phaseOrder(kind string) int {
	switch kind {
	case trace.KindAdmission:
		return 0
	case trace.KindQueue:
		return 1
	case trace.KindDispatch:
		return 2
	}
	return 3
}

// criticalPath extracts the longest chain through the top-level span
// DAG (atom and loop spans at iteration −1 — loop bodies are interior
// to their loop span's wall). Dependencies come from each atom's
// external input operators, resolved to the span that produced them
// within the same plan; spans without atom structure (synthetic traces)
// fall back to interval precedence — every span that ended by this
// span's start could have fed it. A step costs its queue wait plus
// wall, so the path length is the serial time the run could not have
// avoided by adding workers.
func criticalPath(spans []*trace.Span) (int64, []PathStep) {
	type node struct {
		sp   *trace.Span
		cost int64
		best int64
		prev int
	}
	var nodes []node
	for _, sp := range spans {
		if (sp.Kind == trace.KindAtom || sp.Kind == trace.KindLoop) && sp.Iteration < 0 {
			nodes = append(nodes, node{sp: sp, cost: int64(sp.QueueWait) + int64(sp.Wall), prev: -1})
		}
	}
	if len(nodes) == 0 {
		return 0, nil
	}
	// Producers end before their consumers begin, so start order (ties
	// by span ID — Begin order) is a topological order of the DAG.
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i].sp, nodes[j].sp
		if !a.StartedAt.Equal(b.StartedAt) {
			return a.StartedAt.Before(b.StartedAt)
		}
		return a.ID < b.ID
	})
	type prodKey struct {
		plan string
		op   int
	}
	producer := map[prodKey]int{} // operator → node index of the span that ran it
	for i, n := range nodes {
		if n.sp.Atom == nil || n.sp.Failed() {
			continue // failed spans published no outputs
		}
		for _, op := range n.sp.Atom.Ops {
			producer[prodKey{n.sp.Plan, op.ID}] = i
		}
		if n.sp.Atom.LoopOp != nil {
			producer[prodKey{n.sp.Plan, n.sp.Atom.LoopOp.ID}] = i
		}
	}
	for i := range nodes {
		n := &nodes[i]
		n.best = n.cost
		relax := func(j int) {
			if j >= i {
				return // self or not yet finalized — cannot precede
			}
			if cand := nodes[j].best + n.cost; cand > n.best ||
				(cand == n.best && n.prev >= 0 && nodes[j].sp.ID < nodes[n.prev].sp.ID) {
				n.best = cand
				n.prev = j
			}
		}
		if n.sp.Atom != nil {
			for _, inID := range atomInputIDs(n.sp.Atom) {
				if j, ok := producer[prodKey{n.sp.Plan, inID}]; ok {
					relax(j)
				}
			}
		} else {
			for j := 0; j < i; j++ {
				if !nodes[j].sp.EndedAt.After(n.sp.StartedAt) {
					relax(j)
				}
			}
		}
	}
	bestIdx := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].best > nodes[bestIdx].best ||
			(nodes[i].best == nodes[bestIdx].best && nodes[i].sp.ID < nodes[bestIdx].sp.ID) {
			bestIdx = i
		}
	}
	var path []PathStep
	for i := bestIdx; i >= 0; i = nodes[i].prev {
		sp := nodes[i].sp
		path = append(path, PathStep{
			SpanID:      sp.ID,
			AtomID:      sp.AtomID,
			Kind:        sp.Kind,
			Name:        sp.Name,
			Platform:    string(sp.Platform),
			QueueWaitNS: int64(sp.QueueWait),
			WallNS:      int64(sp.Wall),
		})
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return nodes[bestIdx].best, path
}

// atomInputIDs mirrors the scheduler's external-input derivation: the
// operator IDs whose outputs this atom consumes from outside itself.
func atomInputIDs(atom *engine.TaskAtom) []int {
	if atom.Kind == engine.AtomLoop {
		ids := make([]int, 0, len(atom.LoopOp.Inputs))
		for _, in := range atom.LoopOp.Inputs {
			ids = append(ids, in.ID)
		}
		return ids
	}
	var ids []int
	for _, op := range atom.Ops {
		for _, in := range op.Inputs {
			if !atom.Contains(in.ID) {
				ids = append(ids, in.ID)
			}
		}
	}
	return ids
}

func topAtoms(atoms []*trace.Span) []AtomSummary {
	sorted := append([]*trace.Span(nil), atoms...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Wall != sorted[j].Wall {
			return sorted[i].Wall > sorted[j].Wall
		}
		return sorted[i].ID < sorted[j].ID
	})
	if len(sorted) > TopN {
		sorted = sorted[:TopN]
	}
	out := make([]AtomSummary, 0, len(sorted))
	for _, sp := range sorted {
		out = append(out, AtomSummary{
			SpanID:      sp.ID,
			AtomID:      sp.AtomID,
			Name:        sp.Name,
			Platform:    string(sp.Platform),
			Iteration:   sp.Iteration,
			WallNS:      int64(sp.Wall),
			QueueWaitNS: int64(sp.QueueWait),
			ConvNS:      int64(sp.ConvTime),
			Retries:     sp.Retries,
		})
	}
	return out
}
