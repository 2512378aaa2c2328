// Intra-atom sharding primitives: splitting one batch of data quanta
// into shards a platform can process in parallel, and merging shard
// results back. The paper's platform layer works on batches (§3); a
// shard is a contiguous sub-batch, so the concatenation of shards in
// index order replays the original batch exactly — the invariant every
// order-sensitive merge (concat, stable re-sort) relies on.

package channel

// Partition splits a Collection or Batch channel into at most p
// non-empty shards of the same format. The split is contiguous and
// order-preserving: concatenating the shards in index order yields the
// original record sequence. Fewer than p shards are returned when the
// channel holds fewer than p records; an empty or single-record
// channel (or p ≤ 1) comes back as the one original channel, unsplit.
// Batch shards are zero-copy column-slice views sharing the parent's
// typed storage and validity bitmaps.
func Partition(ch *Channel, p int) ([]*Channel, error) {
	if ch.Format == Batch {
		return partitionBatch(ch, p)
	}
	recs, err := ch.AsCollection()
	if err != nil {
		return nil, err
	}
	if p > len(recs) {
		p = len(recs)
	}
	if p <= 1 {
		return []*Channel{ch}, nil
	}
	chunk := (len(recs) + p - 1) / p
	out := make([]*Channel, 0, p)
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, NewCollection(recs[lo:hi]))
	}
	return out, nil
}

// partitionBatch is Partition for the columnar format: contiguous
// zero-copy row-range views.
func partitionBatch(ch *Channel, p int) ([]*Channel, error) {
	b, err := ch.AsBatch()
	if err != nil {
		return nil, err
	}
	n := b.Len()
	if p > n {
		p = n
	}
	if p <= 1 {
		return []*Channel{ch}, nil
	}
	chunk := (n + p - 1) / p
	out := make([]*Channel, 0, p)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, NewBatch(b.Slice(lo, hi)))
	}
	return out, nil
}
