// The Hub bundles a metrics Registry, a RunTracker and the span-stream
// Collector that feeds both. A Context owns a private hub by default;
// rheem.WithTelemetryHub lets several Contexts (the bench harness's
// per-experiment contexts, say) share one hub so a single monitoring
// server sees them all.

package metrics

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
)

// Hub ties together the three live-telemetry pieces.
type Hub struct {
	reg  *Registry
	runs *RunTracker
	col  *Collector
	// rec is the optional run flight recorder: completed runs are folded
	// into per-run profiles the monitoring server exposes.
	rec atomic.Pointer[profile.Recorder]
	// cal is the optional shared cost calibrator: every Execute on a
	// Context bound to this hub folds its completed run into it, and
	// every optimization reads its correction factors — the cross-run
	// learning loop.
	cal atomic.Pointer[cost.Calibrator]
}

// NewHub returns a hub with a fresh registry, run tracker and
// collector (instruments pre-registered).
func NewHub() *Hub {
	reg := NewRegistry()
	h := &Hub{reg: reg, runs: NewRunTracker()}
	h.col = newCollector(reg)
	return h
}

// Registry returns the hub's metrics registry.
func (h *Hub) Registry() *Registry { return h.reg }

// SetFlightRecorder attaches a run flight recorder: the Context records
// every Execute's trace into it, and the monitoring server serves
// /runs/{id}/profile and /runs/{id}/trace.json from it.
func (h *Hub) SetFlightRecorder(rec *profile.Recorder) { h.rec.Store(rec) }

// FlightRecorder returns the attached recorder, nil if none.
func (h *Hub) FlightRecorder() *profile.Recorder { return h.rec.Load() }

// SetCalibrator attaches a shared cost calibrator and exports its
// state as rheem_calibration_* metrics: fold count, cell count, and
// the learned per-(kind, platform) cost factors and per-kind
// cardinality factors (applied cells only — guarded cells are
// factor-1 noise a dashboard doesn't need).
func (h *Hub) SetCalibrator(cal *cost.Calibrator) {
	h.cal.Store(cal)
	h.reg.SetFunc("rheem_calibration_folds_total",
		"Completed runs folded into the shared cost calibrator.",
		typeCounter, nil, func() []Sample {
			return []Sample{{Value: float64(h.cal.Load().Folds())}}
		})
	h.reg.SetFunc("rheem_calibration_cells",
		"Correction cells the calibrator tracks, by kind (cost or card).",
		typeGauge, []string{"kind"}, func() []Sample {
			s := h.cal.Load().Snapshot()
			if s == nil {
				return nil
			}
			return []Sample{
				{Labels: []Label{{Name: "kind", Value: "cost"}}, Value: float64(len(s.Cost))},
				{Labels: []Label{{Name: "kind", Value: "card"}}, Value: float64(len(s.Card))},
			}
		})
	h.reg.SetFunc("rheem_calibration_factor",
		"Learned cost-correction factor per (operator kind, platform); only cells past the min-sample guard.",
		typeGauge, []string{"kind", "platform"}, func() []Sample {
			s := h.cal.Load().Snapshot()
			if s == nil {
				return nil
			}
			out := make([]Sample, 0, len(s.Cost))
			for _, c := range s.Cost {
				if !c.Applied {
					continue
				}
				out = append(out, Sample{
					Labels: []Label{
						{Name: "kind", Value: c.Kind},
						{Name: "platform", Value: c.Platform},
					},
					Value: c.Factor,
				})
			}
			return out
		})
	h.reg.SetFunc("rheem_calibration_card_factor",
		"Learned cardinality-correction factor per operator kind; only cells past the min-sample guard.",
		typeGauge, []string{"kind"}, func() []Sample {
			s := h.cal.Load().Snapshot()
			if s == nil {
				return nil
			}
			out := make([]Sample, 0, len(s.Card))
			for _, c := range s.Card {
				if !c.Applied {
					continue
				}
				out = append(out, Sample{
					Labels: []Label{{Name: "kind", Value: c.Kind}},
					Value:  c.Factor,
				})
			}
			return out
		})
}

// Calibrator returns the attached shared calibrator, nil if none.
func (h *Hub) Calibrator() *cost.Calibrator { return h.cal.Load() }

// Runs returns the hub's run tracker.
func (h *Hub) Runs() *RunTracker { return h.runs }

// NewRunTracer registers a run and returns its tracer, whose span
// stream feeds the hub (plus any extra consumers), and the run handle
// the caller must End. The run owns the tracer and is its sink. This is
// the single wiring point between Execute and the live telemetry layer.
func (h *Hub) NewRunTracer(name string, extra ...trace.Consumer) (*trace.Tracer, *Run) {
	run := h.runs.Begin(name)
	run.col = h.col
	h.col.runsTotal.Inc()
	return run.tracer.Init(run, extra...), run
}

// BindEngine exports a platform registry's scrape-time state: each
// registered platform's breaker state as a gauge, and the trips and
// recoveries its health tracker counted. What the atoms themselves did
// is the span stream's, folded by the Collector. Rebinding (a newer
// Context sharing the hub) replaces the previous callbacks — the latest
// bound registry is the one a scrape shows.
func (h *Hub) BindEngine(reg *engine.Registry) {
	health := reg.Health()
	h.reg.SetFunc("rheem_breaker_state",
		"Per-platform circuit breaker state (0=closed, 1=half-open, 2=open).",
		typeGauge, []string{"platform"}, func() []Sample {
			return perPlatform(reg, func(id engine.PlatformID) float64 { return float64(health.State(id)) })
		})
	h.reg.SetFunc("rheem_breaker_trips_total",
		"Circuit breaker transitions into Open (platform quarantined).",
		typeCounter, []string{"platform"}, func() []Sample {
			return perPlatform(reg, func(id engine.PlatformID) float64 {
				trips, _ := health.Transitions(id)
				return float64(trips)
			})
		})
	h.reg.SetFunc("rheem_breaker_recoveries_total",
		"Circuit breaker transitions back to Closed after a successful probe.",
		typeCounter, []string{"platform"}, func() []Sample {
			return perPlatform(reg, func(id engine.PlatformID) float64 {
				_, recoveries := health.Transitions(id)
				return float64(recoveries)
			})
		})
}

// perPlatform samples value once per registered platform, in
// registration order.
func perPlatform(reg *engine.Registry, value func(engine.PlatformID) float64) []Sample {
	ids := reg.PlatformIDs()
	out := make([]Sample, 0, len(ids))
	for _, id := range ids {
		out = append(out, Sample{
			Labels: []Label{{Name: "platform", Value: string(id)}},
			Value:  value(id),
		})
	}
	return out
}

// BindChannels exports the conversion graph's cumulative per-edge
// traffic (conversions performed and bytes moved between formats).
func (h *Hub) BindChannels(reg *channel.Registry) {
	h.reg.SetFunc("rheem_channel_conversions_total",
		"Cross-format channel conversions performed, per (from, to) format pair.",
		typeCounter, []string{"from", "to"}, func() []Sample {
			stats := reg.ConversionStats()
			out := make([]Sample, 0, len(stats))
			for _, s := range stats {
				out = append(out, Sample{
					Labels: []Label{
						{Name: "from", Value: string(s.From)},
						{Name: "to", Value: string(s.To)},
					},
					Value: float64(s.Count),
				})
			}
			return out
		})
	h.reg.SetFunc("rheem_channel_conversion_bytes_total",
		"Bytes moved through cross-format channel conversions, per (from, to) format pair.",
		typeCounter, []string{"from", "to"}, func() []Sample {
			stats := reg.ConversionStats()
			out := make([]Sample, 0, len(stats))
			for _, s := range stats {
				out = append(out, Sample{
					Labels: []Label{
						{Name: "from", Value: string(s.From)},
						{Name: "to", Value: string(s.To)},
					},
					Value: float64(s.Bytes),
				})
			}
			return out
		})
}

// Collector folds span-stream events into the hub's instruments. One
// collector serves every run on the hub; per-run progress goes to the
// Run whose tracer emitted the event.
type Collector struct {
	atomLatency  *HistogramVec // platform
	queueWait    *HistogramVec // platform
	convBytes    *HistogramVec // platform
	shardLatency *HistogramVec // platform
	shards       *CounterVec   // platform
	atoms        *CounterVec   // platform, status
	recordsIn    *CounterVec   // platform
	recordsOut   *CounterVec   // platform
	informats    *CounterVec   // platform, format
	retries      *CounterVec   // platform
	failovers    *Counter
	replans      *Counter
	runsTotal    *Counter
	audits       *CounterVec // flagged
}

// newCollector registers the collector's instruments on the registry.
func newCollector(reg *Registry) *Collector {
	c := &Collector{
		atomLatency: reg.HistogramVec("rheem_atom_latency_seconds",
			"Wall latency of task atom executions (input conversion plus every attempt).",
			LatencyBuckets, "platform"),
		queueWait: reg.HistogramVec("rheem_atom_queue_wait_seconds",
			"Time atoms sat ready before a scheduler worker picked them up.",
			LatencyBuckets, "platform"),
		convBytes: reg.HistogramVec("rheem_conversion_bytes",
			"Bytes converted across platform boundaries to feed an atom.",
			SizeBuckets, "platform"),
		shardLatency: reg.HistogramVec("rheem_shard_latency_seconds",
			"Wall latency of individual intra-atom shard executions; the spread exposes shard skew.",
			LatencyBuckets, "platform"),
		shards: reg.CounterVec("rheem_shards_total",
			"Intra-atom shard executions launched.", "platform"),
		atoms: reg.CounterVec("rheem_atoms_total",
			"Task atom executions by final status: ok, error, or cancelled.", "platform", "status"),
		recordsIn: reg.CounterVec("rheem_records_in_total",
			"Records consumed from input channels by successful atoms.", "platform"),
		recordsOut: reg.CounterVec("rheem_records_out_total",
			"Records produced to output channels by successful atoms.", "platform"),
		informats: reg.CounterVec("rheem_consumer_format_total",
			"Consumer operators by the channel format the executor delivered their external inputs in — the row-vs-batch adoption signal.",
			"platform", "format"),
		retries: reg.CounterVec("rheem_retries_total",
			"Atom execution attempts retried after transient failures.", "platform"),
		failovers: reg.CounterVec("rheem_failovers_total",
			"Cross-platform failover re-plans.").With(),
		replans: reg.CounterVec("rheem_replans_total",
			"Adaptive re-optimizations triggered by cardinality mismatches.").With(),
		runsTotal: reg.CounterVec("rheem_runs_total",
			"Plan executions started.").With(),
		audits: reg.CounterVec("rheem_card_audits_total",
			"Estimate-vs-actual cardinality audit records, by whether the miss was flagged.",
			"flagged"),
	}
	// The mis-estimate ratio is derived from the audit counters at
	// scrape time: flagged / total, 0 while no audits have happened.
	reg.SetFunc("rheem_card_misestimate_ratio",
		"Fraction of audited atom-boundary cardinalities flagged as gross mis-estimates.",
		typeGauge, nil, func() []Sample {
			flagged := float64(c.audits.With("true").Value())
			total := flagged + float64(c.audits.With("false").Value())
			ratio := 0.0
			if total > 0 {
				ratio = flagged / total
			}
			return []Sample{{Value: ratio}}
		})
	return c
}

// fold updates the shared instruments and the run's live progress with
// one event of the run's span stream. It runs under the tracer's lock,
// so per-event work stays small: a few atomic adds plus one short
// critical section on the run.
func (c *Collector) fold(run *Run, e trace.Event) {
	switch e.Kind {
	case trace.RunStart:
		run.setTotal(e.TotalAtoms)
	case trace.SpanStart:
		// Shard spans are sub-atom work: they feed their own
		// instruments below but must not skew atom counters or the
		// run's progress denominator.
		if e.Span.Kind == trace.KindShard {
			return
		}
		run.spanStarted(string(e.Span.Platform))
	case trace.SpanRetry:
		c.retries.With(string(e.Span.Platform)).Inc()
		run.retry()
	case trace.SpanEnd:
		sp := e.Span
		platform := string(sp.Platform)
		if sp.Kind == trace.KindShard {
			c.shards.With(platform).Inc()
			c.shardLatency.With(platform).Observe(sp.Wall.Seconds())
			return
		}
		c.atoms.With(platform, spanStatus(e.Err)).Inc()
		if sp.Kind == trace.KindAtom {
			c.atomLatency.With(platform).Observe(sp.Wall.Seconds())
			if sp.QueueWait > 0 {
				c.queueWait.With(platform).Observe(sp.QueueWait.Seconds())
			}
			if sp.ConvBytes > 0 {
				c.convBytes.With(platform).Observe(float64(sp.ConvBytes))
			}
		}
		if !sp.Failed() {
			c.recordsIn.With(platform).Add(e.Metrics.InRecords)
			c.recordsOut.With(platform).Add(e.Metrics.OutRecords)
		}
		for f, n := range sp.InFormats {
			c.informats.With(platform, f).Add(int64(n))
		}
		records := int64(0)
		if !sp.Failed() {
			records = e.Metrics.OutRecords
		}
		run.spanEnded(platform, records, sp.Failed(), sp.Iteration < 0)
	case trace.Failover:
		c.failovers.Inc()
		run.failover()
	case trace.Replan:
		c.replans.Inc()
		run.replan()
	case trace.AuditRecords:
		for _, a := range e.Audits {
			c.audits.With(strconv.FormatBool(a.Flagged)).Inc()
		}
	}
}

// spanStatus is a span's rheem_atoms_total status: "ok", "error", or
// "cancelled" when the span ended because its run was cancelled — a
// sibling's failure won, or the caller gave up — rather than failing
// itself. A deadline or an atom timeout is still an error.
func spanStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	return "error"
}
