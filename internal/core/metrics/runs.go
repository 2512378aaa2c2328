// Live run progress: every Context.Execute registers a Run with the
// hub's RunTracker, the run folds its own span stream as atoms start
// and finish, and the /runs endpoint serializes the tracker —
// so a long multi-platform job can be watched while it executes
// (atoms completed/total, current records/sec, per-platform atom
// occupancy, failovers so far).

package metrics

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"rheem/internal/core/trace"
)

// DefaultDoneHistory bounds how many finished runs /runs keeps
// reporting (and the tracker keeps in memory) unless SetDoneHistory
// overrides it.
const DefaultDoneHistory = 32

// rateWindow is the sliding window current records/sec is computed
// over.
const rateWindow = 5 * time.Second

// rateSample is one span-end contribution to the records/sec window.
type rateSample struct {
	at      time.Time
	records int64
}

// Run is one in-flight (or recently finished) Execute. It owns its
// tracer and is the tracer's sink; all methods are safe for concurrent use.
type Run struct {
	mu        sync.Mutex
	tracker   *RunTracker // retires the run on End
	col       *Collector  // nil on a run begun on a bare tracker
	tracer    trace.Tracer
	id        int64
	name      string
	startedAt time.Time
	endedAt   time.Time
	now       func() time.Time

	total     int // scheduled atoms in the current plan; 0 = unknown
	running   int // spans in flight, loop-body atoms included
	completed int
	failed    int
	retries   int
	failovers int
	replans   int

	recordsOut int64
	// occupancy counts the atoms executing on each platform the run has
	// started one on: as many entries as the registry has platforms. It
	// and the rate window spill from the run's arrays only past 3 and 4.
	occupancy []occupant
	window    []rateSample
	occBuf    [3]occupant
	winBuf    [4]rateSample

	done bool
	err  string
}

// occupant is one platform's count of atoms executing on it.
type occupant struct {
	platform string
	atoms    int
}

// occupant returns the platform's entry, added at zero if it has none.
func (r *Run) occupant(platform string) *occupant {
	for i := range r.occupancy {
		if r.occupancy[i].platform == platform {
			return &r.occupancy[i]
		}
	}
	r.occupancy = append(r.occupancy, occupant{platform: platform})
	return &r.occupancy[len(r.occupancy)-1]
}

// RunStatus is one run's JSON-serializable progress snapshot.
type RunStatus struct {
	ID        int64     `json:"id"`
	Name      string    `json:"name"`
	StartedAt time.Time `json:"started_at"`
	EndedAt   time.Time `json:"ended_at"`
	Done      bool      `json:"done"`
	Err       string    `json:"error,omitempty"`

	// AtomsTotal is the scheduled atom count of the current plan (it
	// can change when a failover or re-optimization replaces the plan);
	// 0 while unknown.
	AtomsTotal int `json:"atoms_total"`
	// AtomsDone counts top-level spans that finished successfully;
	// AtomsFailed the ones that ended in an error (retries exhausted).
	AtomsDone    int `json:"atoms_done"`
	AtomsFailed  int `json:"atoms_failed"`
	AtomsRunning int `json:"atoms_running"`
	Retries      int `json:"retries"`
	Failovers    int `json:"failovers"`
	Replans      int `json:"replans"`

	// RecordsOut totals records produced by successful atoms, loop-body
	// iterations included — a throughput figure, not the sink size.
	RecordsOut int64 `json:"records_out"`
	// RecordsPerSec is the output rate over the trailing 5s window —
	// the "current" throughput, not the lifetime average.
	RecordsPerSec float64 `json:"records_per_sec"`
	// Occupancy maps platform → atoms executing on it right now.
	Occupancy map[string]int `json:"occupancy,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
}

// ID returns the run's tracker-assigned identity.
func (r *Run) ID() int64 { return r.id }

// Started returns when the run began.
func (r *Run) Started() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.startedAt
}

// Consume folds one event of the run's span stream through the hub's
// Collector: a Run is its tracer's trace.Sink.
func (r *Run) Consume(e trace.Event) { r.col.fold(r, e) }

// Ended returns when the run finished — zero while still in flight.
func (r *Run) Ended() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.endedAt
}

// setTotal records the scheduled atom count of the (possibly
// replacement) plan.
func (r *Run) setTotal(n int) {
	r.mu.Lock()
	if n > 0 {
		r.total = n
	}
	r.mu.Unlock()
}

// spanStarted accounts an atom entering execution on a platform
// (loop-body atoms included — they occupy platforms too).
func (r *Run) spanStarted(platform string) {
	r.mu.Lock()
	r.running++
	r.occupant(platform).atoms++
	r.mu.Unlock()
}

// spanEnded accounts an atom leaving execution: occupancy and the
// rate-window contribution for every span; completion progress only
// for top-level spans (loop bodies don't advance atoms_done — their
// enclosing loop span does, once, when the loop finishes).
func (r *Run) spanEnded(platform string, records int64, failed, topLevel bool) {
	r.mu.Lock()
	if r.running > 0 {
		r.running--
	}
	if o := r.occupant(platform); o.atoms > 0 {
		o.atoms--
	}
	if topLevel {
		if failed {
			r.failed++
		} else {
			r.completed++
		}
	}
	if records > 0 {
		r.recordsOut += records
		now := r.now()
		r.window = append(r.window, rateSample{at: now, records: records})
		r.trimWindowLocked(now)
	}
	r.mu.Unlock()
}

func (r *Run) retry()    { r.mu.Lock(); r.retries++; r.mu.Unlock() }
func (r *Run) failover() { r.mu.Lock(); r.failovers++; r.mu.Unlock() }
func (r *Run) replan()   { r.mu.Lock(); r.replans++; r.mu.Unlock() }

// trimWindowLocked drops rate samples older than the window.
func (r *Run) trimWindowLocked(now time.Time) {
	cut := now.Add(-rateWindow)
	i := 0
	for i < len(r.window) && r.window[i].at.Before(cut) {
		i++
	}
	if i > 0 {
		r.window = append(r.window[:0], r.window[i:]...)
	}
}

// End marks the run finished and retires it into the tracker's
// bounded done-history. A non-nil err records the failure the caller
// is about to return. Retiring here — not on the next /runs scrape —
// is what keeps a long-lived server's tracker from growing without
// bound when nobody is scraping.
func (r *Run) End(err error) {
	r.mu.Lock()
	first := !r.done
	if first {
		r.done = true
		r.endedAt = r.now()
		if err != nil {
			r.err = err.Error()
		}
	}
	t := r.tracker
	r.mu.Unlock()
	// r.mu is released before taking the tracker lock: Status acquires
	// tracker-then-run, so holding run-then-tracker here would invert
	// the order.
	if first && t != nil {
		t.retire(r)
	}
}

// status snapshots the run (deep-copied).
func (r *Run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	st := RunStatus{
		ID: r.id, Name: r.name, StartedAt: r.startedAt, EndedAt: r.endedAt,
		Done: r.done, Err: r.err,
		AtomsTotal: r.total, AtomsDone: r.completed, AtomsFailed: r.failed,
		Retries: r.retries, Failovers: r.failovers, Replans: r.replans,
		RecordsOut: r.recordsOut,
	}
	st.AtomsRunning = r.running
	end := now
	if r.done {
		end = r.endedAt
	}
	if d := end.Sub(r.startedAt); d > 0 {
		st.ElapsedMS = d.Milliseconds()
	}
	if !r.done {
		r.trimWindowLocked(now)
		var recs int64
		for _, s := range r.window {
			recs += s.records
		}
		span := rateWindow
		if lived := now.Sub(r.startedAt); lived > 0 && lived < span {
			span = lived
		}
		if span > 0 {
			st.RecordsPerSec = float64(recs) / span.Seconds()
		}
		for _, o := range r.occupancy {
			if o.atoms > 0 {
				if st.Occupancy == nil {
					st.Occupancy = make(map[string]int, len(r.occupancy))
				}
				st.Occupancy[o.platform] = o.atoms
			}
		}
	}
	return st
}

// RunTracker registers runs and serves their progress. One tracker is
// shared by every Context bound to the same Hub. Its done-history keeps
// a finished run's frozen status, not the run and its spans.
type RunTracker struct {
	mu      sync.Mutex
	now     func() time.Time
	nextID  int64
	history int // finished runs kept; see SetDoneHistory
	active  []*Run
	done    []RunStatus // most recent last, bounded by history
}

// NewRunTracker returns an empty tracker keeping DefaultDoneHistory
// finished runs.
func NewRunTracker() *RunTracker {
	return &RunTracker{now: time.Now, history: DefaultDoneHistory}
}

// SetClock injects a clock (tests only). It applies to runs begun
// after the call.
func (t *RunTracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// SetDoneHistory caps how many finished runs the tracker retains
// (n < 0 selects 0 — finished runs vanish from /runs immediately).
// A long-lived server tunes this to its traffic; the excess beyond the
// new cap is evicted right away, oldest first.
func (t *RunTracker) SetDoneHistory(n int) {
	if n < 0 {
		n = 0
	}
	t.mu.Lock()
	t.history = n
	t.trimDoneLocked()
	t.mu.Unlock()
}

// SeedID advances the tracker's ID counter to at least n, so runs
// begun after a restart never collide with run IDs a previous process
// persisted (the flight recorder's rehydrated profile history).
func (t *RunTracker) SeedID(n int64) {
	t.mu.Lock()
	if n > t.nextID {
		t.nextID = n
	}
	t.mu.Unlock()
}

// Begin registers a new in-flight run.
func (t *RunTracker) Begin(name string) *Run {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	r := &Run{tracker: t, id: t.nextID, name: name, now: t.now, startedAt: t.now()}
	r.occupancy, r.window = r.occBuf[:0], r.winBuf[:0]
	t.active = append(t.active, r)
	return r
}

// Tracked returns how many runs the tracker currently holds, active
// and retired — the figure the memory-bound tests pin.
func (t *RunTracker) Tracked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active) + len(t.done)
}

// retire moves a finished run's frozen status from the active list into
// the bounded done-history. Idempotent: a run already retired is left
// alone.
func (t *RunTracker) retire(r *Run) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.Index(t.active, r); i >= 0 {
		t.active = slices.Delete(t.active, i, i+1) // clears the tail: nothing pins r
		// The history is sized once, so a retirement never grows it.
		t.done = append(slices.Grow(t.done, t.history-len(t.done)), r.status())
		t.trimDoneLocked()
	}
}

// trimDoneLocked drops the oldest finished runs past the history cap.
func (t *RunTracker) trimDoneLocked() {
	if excess := len(t.done) - t.history; excess > 0 {
		t.done = slices.Delete(t.done, 0, excess) // clears the tail too
	}
}

// Status snapshots every tracked run: in-flight runs first (oldest
// first), then up to the history cap of finished ones.
func (t *RunTracker) Status() []RunStatus {
	t.mu.Lock()
	out := make([]RunStatus, 0, len(t.active)+len(t.done))
	for _, r := range t.active {
		out = append(out, r.status())
	}
	out = append(out, t.done...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Done != out[j].Done {
			return !out[i].Done
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSON serializes the tracker as the /runs payload.
func (t *RunTracker) WriteJSON(w io.Writer) error {
	payload := struct {
		Runs []RunStatus `json:"runs"`
	}{Runs: t.Status()}
	enc := json.NewEncoder(w)
	return enc.Encode(payload)
}
