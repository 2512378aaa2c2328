package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a platform circuit breaker's state.
type BreakerState int

// Circuit breaker states. A platform starts Closed (healthy). After
// HealthConfig.Threshold consecutive execution failures it trips Open
// (quarantined): the optimizer's failover re-planning excludes it.
// Once HealthConfig.Cooldown has elapsed the breaker relaxes to
// HalfOpen — the platform is admitted again, and the next execution
// outcome decides: success closes the breaker, failure re-opens it.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String renders the state for logs and experiment tables.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// HealthConfig tunes the per-platform circuit breakers.
type HealthConfig struct {
	// Threshold is the number of consecutive failures that quarantines
	// a platform (default 3).
	Threshold int
	// Cooldown is how long a quarantined platform stays Open before a
	// half-open probe re-admits it (default 30s).
	Cooldown time.Duration
}

func (c *HealthConfig) defaults() {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
}

// Health tracks per-platform execution health: one circuit breaker per
// platform, fed with execution outcomes — a Registry's by the executor
// after every atom execution attempt — and counting its own
// transitions. All methods are safe for concurrent use — the executor
// reports outcomes from many scheduler goroutines at once.
type Health struct {
	mu      sync.Mutex
	cfg     HealthConfig
	now     func() time.Time // injectable clock for deterministic tests
	entries map[PlatformID]*breakerEntry
	seq     atomic.Uint64 // failures reported so far; advanced under mu
}

type breakerEntry struct {
	state       BreakerState
	consecutive int       // consecutive failures while Closed
	openedAt    time.Time // when the breaker last tripped Open
	lastFailure uint64    // Health.seq at the platform's latest failure
	trips       int64     // transitions into Open
	recoveries  int64     // transitions back to Closed
}

func newHealth() *Health { return NewHealth(HealthConfig{}, time.Now) }

// NewHealth returns a tracker with every breaker closed, tuned by cfg
// (zero fields take the defaults) and reading time from now. The
// registry has one for the engine; the job service keeps one per tenant.
func NewHealth(cfg HealthConfig, now func() time.Time) *Health {
	cfg.defaults()
	return &Health{cfg: cfg, now: now, entries: make(map[PlatformID]*breakerEntry)}
}

func (h *Health) entry(id PlatformID) *breakerEntry {
	e := h.entries[id]
	if e == nil {
		e = &breakerEntry{}
		h.entries[id] = e
	}
	return e
}

// transition moves the breaker to a new state, counting a trip into
// Open or a recovery to Closed when the state actually changes. The
// caller holds the tracker's mu.
func (e *breakerEntry) transition(to BreakerState) {
	if e.state == to {
		return
	}
	switch to {
	case BreakerOpen:
		e.trips++
	case BreakerClosed:
		e.recoveries++
	}
	e.state = to
}

// refreshLocked applies the cooldown transition Open → HalfOpen.
func (h *Health) refreshLocked(e *breakerEntry) {
	if e.state == BreakerOpen && h.now().Sub(e.openedAt) >= h.cfg.Cooldown {
		e.transition(BreakerHalfOpen)
	}
}

// FailureSeq counts the failures reported so far, on any platform: read
// it before an execution starts, and pass it to ReportSuccess.
func (h *Health) FailureSeq() uint64 { return h.seq.Load() }

// ReportSuccess records a successful execution on the platform, started
// when FailureSeq read since: the failure streak resets and a half-open
// (or still-open) breaker closes. A success is stale, and ignored, when
// the platform reported a failure after since — it says nothing about
// the platform after that failure.
func (h *Health) ReportSuccess(id PlatformID, since uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	if e.lastFailure > since {
		return
	}
	e.consecutive = 0
	e.transition(BreakerClosed)
}

// ReportFailure records a failed execution attempt and returns whether
// the platform is now quarantined. A failure during a half-open probe
// re-opens the breaker immediately.
func (h *Health) ReportFailure(id PlatformID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	e.lastFailure = h.seq.Add(1)
	h.refreshLocked(e)
	switch e.state {
	case BreakerHalfOpen:
		e.transition(BreakerOpen)
		e.openedAt = h.now()
	case BreakerClosed:
		e.consecutive++
		if e.consecutive >= h.cfg.Threshold {
			e.transition(BreakerOpen)
			e.openedAt = h.now()
		}
	case BreakerOpen:
		e.openedAt = h.now() // still failing: extend the quarantine
	}
	return e.state == BreakerOpen
}

// State returns the platform's current breaker state, applying the
// cooldown transition (Open becomes HalfOpen once Cooldown elapses).
func (h *Health) State(id PlatformID) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	h.refreshLocked(e)
	return e.state
}

// Transitions returns how often the platform's breaker has tripped into
// Open and recovered to Closed since the tracker was made; both are 0
// for a platform that never reported.
func (h *Health) Transitions(id PlatformID) (trips, recoveries int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.entries[id]; e != nil {
		return e.trips, e.recoveries
	}
	return 0, 0
}

// Quarantined reports whether the platform's breaker is Open.
func (h *Health) Quarantined(id PlatformID) bool {
	return h.State(id) == BreakerOpen
}

// QuarantinedPlatforms lists all platforms whose breakers are Open,
// sorted for deterministic iteration.
func (h *Health) QuarantinedPlatforms() []PlatformID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []PlatformID
	for id, e := range h.entries {
		h.refreshLocked(e)
		if e.state == BreakerOpen {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns the state of every breaker that is not Closed, nil
// when all are. A platform absent from it is Closed — the zero
// BreakerState — so indexing the snapshot reads every platform right,
// and a healthy run copies nothing.
func (h *Health) Snapshot() map[PlatformID]BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out map[PlatformID]BreakerState
	for id, e := range h.entries {
		h.refreshLocked(e)
		if e.state == BreakerClosed {
			continue
		}
		if out == nil {
			out = make(map[PlatformID]BreakerState)
		}
		out[id] = e.state
	}
	return out
}
