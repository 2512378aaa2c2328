package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rheem/internal/core/trace"
	"rheem/internal/storage/blob"
)

// DefaultHistory is how many completed-run records a recorder keeps
// when the caller does not say.
const DefaultHistory = 64

const recordPrefix, recordSuffix = "runprofile-", ".json"

// recordFile names the file that persists a run's record as JSON.
func recordFile(runID int64) string {
	return recordPrefix + strconv.FormatInt(runID, 10) + recordSuffix
}

// Record is one completed run as the flight recorder keeps it: the raw
// spans and audit trail plus the profile built from them. Spans lose
// their Atom pointers when persisted, so the profile travels with them
// instead of being recomputed. A record Get returns always carries its
// profile; one kept in memory only builds it there, the first time it
// is read.
type Record struct {
	Schema  int               `json:"schema"`
	RunID   int64             `json:"run_id"`
	Name    string            `json:"name"`
	Spans   []*trace.Span     `json:"spans"`
	Audits  []trace.CardAudit `json:"audits,omitempty"`
	Profile *Profile          `json:"profile"`

	// What Build takes besides the spans, for a profile not built yet.
	started, ended time.Time
	runErr         string
}

// built returns the record with its profile: rec itself when it has
// one, else a copy carrying the profile Build makes.
func (rec *Record) built() *Record {
	if rec.Profile != nil {
		return rec
	}
	b := *rec
	b.Profile = Build(b.RunID, b.Name, b.started, b.ended, b.runErr, b.Spans)
	return &b
}

// Recorder keeps a bounded history of completed-run records, optionally
// persisting each as a file so the history survives a process restart.
// All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	history int
	dir     *blob.Dir
	recs    map[int64]*Record
	order   []int64 // insertion order, oldest first
}

// NewRecorder returns a recorder keeping up to history records
// (0 → DefaultHistory). A nil dir keeps records in memory only.
func NewRecorder(history int, dir *blob.Dir) *Recorder {
	if history <= 0 {
		history = DefaultHistory
	}
	return &Recorder{history: history, dir: dir, recs: map[int64]*Record{}}
}

// Record folds a completed run into the history: evicts past the
// history bound and, with a directory, builds the run's profile and
// persists the record. Without one the profile is built the
// first time Get reads the record — most runs are never looked at.
// Returns the stored record, whose Profile is nil until then.
func (r *Recorder) Record(runID int64, name string, started, ended time.Time, runErr error, tr *trace.Trace) *Record {
	errStr := ""
	if runErr != nil {
		errStr = runErr.Error()
	}
	var spans []*trace.Span
	var audits []trace.CardAudit
	if tr != nil {
		spans, audits = tr.Spans, tr.Audits
	}
	rec := &Record{
		Schema:  Schema,
		RunID:   runID,
		Name:    name,
		Spans:   spans,
		Audits:  audits,
		started: started,
		ended:   ended,
		runErr:  errStr,
	}
	if r.dir != nil {
		rec = rec.built() // the persisted JSON carries the profile
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.recs[runID]; !dup {
		r.order = append(r.order, runID)
	}
	r.recs[runID] = rec
	r.trimLocked()
	if r.recs[runID] == rec { // not evicted by a zero history bound
		r.persistLocked(rec)
	}
	return rec
}

// Annotate appends spans to an already-recorded run — the job service
// uses it to attach the admission/queue/dispatch phases after the job
// reaches its terminal state — then, with a directory, rebuilds the profile
// and re-persists (without one the profile is built when first read).
// Spans with ID 0 are assigned IDs continuing past the record's highest.
// Unknown runs (evicted, or never recorded) return an error. Annotate
// installs a replacement record rather than mutating in place: a Record
// returned by Get is immutable, so concurrent readers (the monitoring
// endpoints) never observe a half-updated profile.
func (r *Recorder) Annotate(runID int64, spans ...*trace.Span) error {
	if len(spans) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.recs[runID]
	if !ok {
		return fmt.Errorf("profile: no record for run %d", runID)
	}
	maxID := 0
	for _, sp := range old.Spans {
		if sp.ID > maxID {
			maxID = sp.ID
		}
	}
	rec := *old
	rec.Spans = append(append([]*trace.Span(nil), old.Spans...), spans...)
	for _, sp := range spans {
		if sp.ID == 0 {
			maxID++
			sp.ID = maxID
		}
	}
	if p := old.Profile; p != nil {
		// A rehydrated record knows its run's times only from its profile.
		rec.started, rec.ended, rec.runErr = p.StartedAt, p.EndedAt, p.Err
	}
	rec.Profile = nil
	next := &rec
	if r.dir != nil {
		next = next.built()
	}
	r.recs[runID] = next
	r.persistLocked(next)
	return nil
}

// Get returns the record for a run, if still retained, with its
// profile: built now, once, if nobody has read the record before — the
// built record replaces the stored one, as Annotate's does.
func (r *Recorder) Get(runID int64) (*Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.recs[runID]
	if ok && rec.Profile == nil {
		rec = rec.built()
		r.recs[runID] = rec
	}
	return rec, ok
}

// Runs lists retained run IDs, ascending.
func (r *Recorder) Runs() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]int64(nil), r.order...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LoadPersisted rehydrates the history after a restart: decodes every
// runprofile-<id>.json a previous process left in the directory and
// returns the highest run ID seen so the run tracker can seed its
// counter past it. Records beyond the history bound are evicted
// oldest-first, exactly as if they had just been recorded.
func (r *Recorder) LoadPersisted() (maxRunID int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir == nil {
		return 0, nil
	}
	names, err := r.dir.List()
	if err != nil {
		return 0, fmt.Errorf("profile: listing persisted runs: %w", err)
	}
	var ids []int64
	for _, name := range names {
		// Other state, or an older build's runprofile-<id>.csv, is no record.
		id := strings.TrimSuffix(strings.TrimPrefix(name, recordPrefix), recordSuffix)
		if n, perr := strconv.ParseInt(id, 10, 64); perr == nil && name == recordFile(n) {
			ids = append(ids, n)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		b, gerr := r.dir.Get(recordFile(id))
		if gerr != nil {
			return 0, fmt.Errorf("profile: loading run %d: %w", id, gerr)
		}
		var rec Record
		if uerr := json.Unmarshal(b, &rec); uerr != nil {
			return 0, fmt.Errorf("profile: decoding run %d: %w", id, uerr)
		}
		if _, dup := r.recs[id]; !dup {
			r.order = append(r.order, id)
		}
		r.recs[id] = &rec
		maxRunID = id // ids ascend
	}
	r.trimLocked()
	return maxRunID, nil
}

// trimLocked evicts the oldest records past the history bound,
// deleting their files.
func (r *Recorder) trimLocked() {
	excess := len(r.order) - r.history
	if excess <= 0 {
		return
	}
	for _, id := range r.order[:excess] {
		delete(r.recs, id)
		if r.dir != nil {
			// Best-effort: the file may predate persistence or be gone.
			_ = r.dir.Delete(recordFile(id))
		}
	}
	copy(r.order, r.order[excess:])
	r.order = r.order[:len(r.order)-excess]
}

// persistLocked writes one record's JSON to its file.
func (r *Recorder) persistLocked(rec *Record) {
	if r.dir == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	// Best-effort: a full disk must not fail the run that produced the
	// profile; the in-memory record still serves until eviction.
	_ = r.dir.Put(recordFile(rec.RunID), b)
}
