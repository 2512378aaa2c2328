package engine

import (
	"sort"
	"sync"
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
// after every atom execution attempt. All methods are safe for
// concurrent use — the executor reports outcomes from many scheduler
// goroutines at once.
type Health struct {
	mu      sync.Mutex
	cfg     HealthConfig
	now     func() time.Time // injectable clock for deterministic tests
	entries map[PlatformID]*breakerEntry
	// observe, when set, is called (under mu) on every breaker state
	// transition — the registry wires it to its Stats counters.
	observe func(id PlatformID, from, to BreakerState)
}

type breakerEntry struct {
	state       BreakerState
	consecutive int       // consecutive failures while Closed
	openedAt    time.Time // when the breaker last tripped Open
}

func newHealth() *Health { return NewHealth(HealthConfig{}, time.Now) }

// NewHealth returns a tracker with every breaker closed, tuned by cfg
// (zero fields take the defaults) and reading time from now. The
// registry has one for the engine; the job service keeps one per tenant.
func NewHealth(cfg HealthConfig, now func() time.Time) *Health {
	cfg.defaults()
	return &Health{cfg: cfg, now: now, entries: make(map[PlatformID]*breakerEntry)}
}

// Configure replaces the breaker tuning; zero fields keep defaults.
// Existing breaker states are preserved.
func (h *Health) Configure(cfg HealthConfig) {
	cfg.defaults()
	h.mu.Lock()
	h.cfg = cfg
	h.mu.Unlock()
}

// setClock injects a fake clock (tests only).
func (h *Health) setClock(now func() time.Time) {
	h.mu.Lock()
	h.now = now
	h.mu.Unlock()
}

func (h *Health) entry(id PlatformID) *breakerEntry {
	e := h.entries[id]
	if e == nil {
		e = &breakerEntry{}
		h.entries[id] = e
	}
	return e
}

// transitionLocked moves the breaker to a new state, notifying the
// observer when the state actually changes. The caller holds mu.
func (h *Health) transitionLocked(id PlatformID, e *breakerEntry, to BreakerState) {
	if e.state == to {
		return
	}
	from := e.state
	e.state = to
	if h.observe != nil {
		h.observe(id, from, to)
	}
}

// refreshLocked applies the cooldown transition Open → HalfOpen.
func (h *Health) refreshLocked(id PlatformID, e *breakerEntry) {
	if e.state == BreakerOpen && h.now().Sub(e.openedAt) >= h.cfg.Cooldown {
		h.transitionLocked(id, e, BreakerHalfOpen)
	}
}

// ReportSuccess records a successful execution on the platform: the
// failure streak resets and a half-open (or still-open) breaker closes
// — any completed execution is direct evidence the platform works.
func (h *Health) ReportSuccess(id PlatformID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	e.consecutive = 0
	h.transitionLocked(id, e, BreakerClosed)
}

// ReportFailure records a failed execution attempt and returns whether
// the platform is now quarantined. A failure during a half-open probe
// re-opens the breaker immediately.
func (h *Health) ReportFailure(id PlatformID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	h.refreshLocked(id, e)
	switch e.state {
	case BreakerHalfOpen:
		h.transitionLocked(id, e, BreakerOpen)
		e.openedAt = h.now()
	case BreakerClosed:
		e.consecutive++
		if e.consecutive >= h.cfg.Threshold {
			h.transitionLocked(id, e, BreakerOpen)
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
	h.refreshLocked(id, e)
	return e.state
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
		h.refreshLocked(id, e)
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
		h.refreshLocked(id, e)
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
