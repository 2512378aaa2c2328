// Per-tenant state: concurrency quotas, a token-bucket rate limit on
// submissions, and tenant-level platform health. Each tenant has its
// own engine.Health — the engine's per-platform circuit breakers, fed
// with this tenant's jobs only — which gives per-tenant
// isolation: a tenant whose jobs keep dying on one platform gets that
// platform excluded from its own future plans (the optimizer simply
// never assigns it), while every other tenant keeps using it — one
// tenant's broken UDFs or poisoned pin cannot quarantine a platform
// service-wide.

package service

import (
	"math"
	"time"

	"rheem/internal/core/engine"
)

// Quota bounds one tenant's footprint on the service.
type Quota struct {
	// MaxConcurrent bounds the tenant's simultaneously running jobs
	// (default 2). Jobs over the bound wait in the tenant's queue.
	MaxConcurrent int `json:"max_concurrent"`
	// MaxQueued bounds the tenant's accepted-but-not-started jobs
	// (default 16); submissions past it are shed with 429.
	MaxQueued int `json:"max_queued"`
	// RatePerSec refills the tenant's submission token bucket; 0 means
	// no rate limit.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: 2×RatePerSec, minimum 1).
	Burst int `json:"burst,omitempty"`
}

func (q Quota) withDefaults() Quota {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = 2
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = 16
	}
	if q.RatePerSec > 0 && q.Burst <= 0 {
		q.Burst = int(math.Max(1, 2*q.RatePerSec))
	}
	return q
}

// bucket is a token-bucket rate limiter with on-demand refill; the
// clock is injected so tests are deterministic.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(q Quota, now time.Time) *bucket {
	if q.RatePerSec <= 0 {
		return nil // unlimited
	}
	return &bucket{rate: q.RatePerSec, burst: float64(q.Burst), tokens: float64(q.Burst), last: now}
}

// take consumes one token, or reports how long until one is available.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// tenant is the service's per-tenant record. All fields but health,
// which locks itself, are guarded by the Service mutex.
type tenant struct {
	name    string
	quota   Quota
	bucket  *bucket
	queue   []*Job // accepted, waiting to start (FIFO)
	running int

	accepted  int64
	shed      int64
	completed int64
	failed    int64
	cancelled int64

	// health is the tenant's own breaker per platform: what its
	// QuarantinedPlatforms lists is kept out of the tenant's next plans.
	health *engine.Health
}

// TenantStatus is the /tenants JSON view of one tenant.
type TenantStatus struct {
	Name      string `json:"name"`
	Quota     Quota  `json:"quota"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Accepted  int64  `json:"accepted"`
	Shed      int64  `json:"shed"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	Cancelled int64  `json:"cancelled"`
	// ExcludedPlatforms lists platforms the tenant's health layer is
	// currently keeping out of this tenant's plans.
	ExcludedPlatforms []string `json:"excluded_platforms,omitempty"`
}

// reportOutcome feeds a finished job into the tenant's breakers, once
// per platform its plan used; since is the breakers' FailureSeq when the
// job started.
func (t *tenant) reportOutcome(platforms []engine.PlatformID, failed bool, since uint64) {
	for _, id := range platforms {
		if failed {
			t.health.ReportFailure(id)
		} else {
			t.health.ReportSuccess(id, since)
		}
	}
}
