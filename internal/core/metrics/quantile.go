package metrics

import (
	"math"
	"sort"
)

// Quantile estimates the q-quantile (0 < q ≤ 1) of a histogram family
// in a snapshot, merging every sample whose labels are a superset of
// the given filter (nil matches all samples — the cross-platform view).
// The estimate interpolates linearly inside the winning bucket, the
// way Prometheus's histogram_quantile does; observations that landed
// in the +Inf overflow bucket clamp to the largest finite bound. The
// second result is false when the family is missing, is not a
// histogram, no sample matches, or no observations were recorded.
//
// This is the bench suite's p99 source: it turns the live
// rheem_atom_latency_seconds histogram into one tail-latency number.
func (s *Snapshot) Quantile(name string, q float64, labels map[string]string) (float64, bool) {
	if q <= 0 || q > 1 {
		return 0, false
	}
	var merged []BucketSnapshot
	for i := range s.Families {
		f := &s.Families[i]
		if f.Name != name || f.Type != typeHistogram {
			continue
		}
		for j := range f.Samples {
			sm := &f.Samples[j]
			if !labelsMatch(sm.Labels, labels) {
				continue
			}
			merged = mergeBuckets(merged, sm.Buckets)
		}
	}
	if len(merged) == 0 {
		return 0, false
	}
	total := merged[len(merged)-1].CumulativeCount
	if total == 0 {
		return 0, false
	}
	// rank is the (fractional) observation index the quantile falls on.
	rank := q * float64(total)
	var prevBound float64
	var prevCum int64
	for i, b := range merged {
		if float64(b.CumulativeCount) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				// Tail landed past the last finite bound: clamp.
				if i > 0 {
					return merged[i-1].UpperBound, true
				}
				return 0, true
			}
			inBucket := float64(b.CumulativeCount - prevCum)
			if inBucket <= 0 {
				return b.UpperBound, true
			}
			frac := (rank - float64(prevCum)) / inBucket
			return prevBound + (b.UpperBound-prevBound)*frac, true
		}
		prevBound, prevCum = b.UpperBound, b.CumulativeCount
	}
	return prevBound, true
}

// labelsMatch reports whether have contains every pair in want.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// mergeBuckets adds the cumulative counts of b into acc, aligning by
// upper bound. Samples of one family share registration-time bounds,
// so the common case is a positional merge; bounds present in only one
// side are kept (counts merge cumulatively by re-sorting).
func mergeBuckets(acc, b []BucketSnapshot) []BucketSnapshot {
	if acc == nil {
		out := make([]BucketSnapshot, len(b))
		copy(out, b)
		return out
	}
	if len(acc) == len(b) {
		aligned := true
		for i := range acc {
			if acc[i].UpperBound != b[i].UpperBound {
				aligned = false
				break
			}
		}
		if aligned {
			for i := range acc {
				acc[i].CumulativeCount += b[i].CumulativeCount
			}
			return acc
		}
	}
	// Mismatched bounds across samples of one family should not happen
	// (bounds are fixed at registration), but merge defensively: convert
	// both to per-bucket deltas keyed by bound, add, and rebuild.
	deltas := map[float64]int64{}
	add := func(bs []BucketSnapshot) {
		var prev int64
		for _, bucket := range bs {
			deltas[bucket.UpperBound] += bucket.CumulativeCount - prev
			prev = bucket.CumulativeCount
		}
	}
	add(acc)
	add(b)
	bounds := make([]float64, 0, len(deltas))
	for ub := range deltas {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds) // ascending, +Inf last
	out := make([]BucketSnapshot, 0, len(bounds))
	var cum int64
	for _, ub := range bounds {
		cum += deltas[ub]
		out = append(out, BucketSnapshot{UpperBound: ub, CumulativeCount: cum})
	}
	return out
}
