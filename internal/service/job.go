package service

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Job states. A job the service has acked always reaches exactly one
// of the three terminal states — never silently disappears — which is
// the invariant the drain chaos suite pins.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is one accepted submission. Mutable fields are guarded by the
// owning Service's mutex; the done channel closes when the job reaches
// a terminal state.
type Job struct {
	id        string
	tenant    string
	name      string
	req       Request
	submitted time.Time
	// buildPlan lowers the spec when the job starts; SQL is compiled at
	// submit (good errors at the door), workload inputs are generated
	// lazily so admission stays O(1).
	buildPlan func() (*plan.Plan, error)

	state           string
	acked           time.Time // admission ack (end of Submit)
	started         time.Time
	ended           time.Time
	err             string
	cancelRequested bool
	cancel          func()
	// runID keys the job's engine run in the telemetry hub's run
	// tracker and the flight recorder; 0 if the job never reached the
	// executor (cancelled while queued, plan build failed).
	runID int64

	records   []data.Record
	digest    string
	outRecs   int64
	failovers int
	platforms []engine.PlatformID

	done chan struct{}
}

// build runs buildPlan under the rule the atom boundary follows
// (engine.RunAtom): a panic is that job's failure, with the stack in its
// error, not the end of the process and of every other tenant's jobs.
func (j *Job) build() (p *plan.Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("service: building the plan of %s panicked: %v\n%s", j.id, r, debug.Stack())
		}
	}()
	return j.buildPlan()
}

// JobStatus is the API's JSON view of one job.
type JobStatus struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Name      string    `json:"name"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted_at"`
	Started   time.Time `json:"started_at"`
	Ended     time.Time `json:"ended_at"`
	Err       string    `json:"error,omitempty"`
	// Records is the result cardinality (terminal successful jobs only).
	Records int `json:"records,omitempty"`
	// Digest is the SHA-256 of the result's canonical binary encoding —
	// what the chaos suite compares for byte identity.
	Digest string `json:"digest,omitempty"`
	// Platforms lists the platforms the final execution plan used.
	Platforms []string `json:"platforms,omitempty"`
	Failovers int      `json:"failovers,omitempty"`
	// RunID keys the job's engine run into the monitoring endpoints
	// /runs/{id}/profile and /runs/{id}/trace.json; 0 if the job never
	// reached the executor.
	RunID int64 `json:"run_id,omitempty"`
}

// terminal reports whether the state is final.
func terminal(state string) bool {
	switch state {
	case StateSucceeded, StateFailed, StateCancelled:
		return true
	}
	return false
}

// statusLocked snapshots the job; the caller holds the service mutex.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Name: j.name, State: j.state,
		Submitted: j.submitted, Started: j.started, Ended: j.ended,
		Err: j.err, Digest: j.digest, Failovers: j.failovers,
		RunID: j.runID,
	}
	if j.state == StateSucceeded {
		st.Records = len(j.records)
	}
	for _, p := range j.platforms {
		st.Platforms = append(st.Platforms, string(p))
	}
	return st
}

// Digest is the canonical result fingerprint: SHA-256 over the
// records' binary encoding. Two result sets are byte-identical iff
// their digests match.
func Digest(recs []data.Record) (string, error) {
	h := sha256.New()
	bw := digestWriters.Get() // a new one's buffer is made by Reset
	bw.Reset(h)
	_, err := data.WriteBinary(bw, recs)
	bw.Reset(nil)
	digestWriters.Put(bw)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestWriters are the buffers between the encoder and the hash, which
// every job would otherwise allocate: WriteBinary writes through, and
// flushes, a *bufio.Writer it is handed. Each is 4 KB, one kept per P.
var digestWriters = engine.FreeList[bufio.Writer]{PerP: 1}
