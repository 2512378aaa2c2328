// The columnar batch format's channel plumbing: the Format constant,
// typed wrap/unwrap helpers, and the hub converters that connect it to
// Collection in the conversion graph. The format itself lives in
// internal/core/batch; this file is what makes it a first-class
// citizen of the movement layer.

package channel

import (
	"fmt"
	"time"

	"rheem/internal/core/batch"
)

// Batch is the columnar in-memory format: a *batch.Batch of typed
// column slices with validity bitmaps. Like Collection it is a driver
// format rather than a platform-native one; vectorized platforms
// consume it directly, everything else reaches it through converters.
const Batch Format = "batch"

// NewBatch wraps a columnar batch in a Batch channel.
func NewBatch(b *batch.Batch) *Channel {
	return &Channel{
		Format:  Batch,
		Payload: b,
		Records: int64(b.Len()),
		Bytes:   b.Bytes(),
	}
}

// AsBatch returns the columnar payload of a Batch channel.
func (c *Channel) AsBatch() (*batch.Batch, error) {
	if c.Format != Batch {
		return nil, fmt.Errorf("channel: %s channel is not a batch", c.Format)
	}
	b, ok := c.Payload.(*batch.Batch)
	if !ok {
		return nil, fmt.Errorf("channel: batch channel holds %T", c.Payload)
	}
	return b, nil
}

// Batch conversion cost constants. The transposition is a single pass
// over typed storage, so it is priced well under the serializing
// platform converters — but the constants are chosen so that no
// existing direct route (Collection↔Table at 3ms + 2.0ns/B) ever
// becomes cheaper via a batch hop: two-hop fixed and per-byte sums
// both strictly exceed the direct edge. Batch-capable consumers win
// because they stop at the batch, skipping the second hop entirely.
const (
	batchFixed     = 500 * time.Microsecond
	batchPerByteNS = 0.8
)

// RegisterBatchConverters adds the Collection↔Batch hub edges to the
// conversion graph. engine.NewRegistry installs them in every
// registry; platform-native formats connect through their existing
// Collection edges or register direct batch edges of their own (the
// way relengine links Table↔Batch). Both edges keep their input's Bytes:
// a batch's Bytes is its records' sum by contract (batch.Batch.Bytes).
func RegisterBatchConverters(r *Registry) {
	r.Register(Converter{
		From: Collection, To: Batch,
		Fixed: batchFixed, PerByteNS: batchPerByteNS,
		Convert: func(ch *Channel) (*Channel, error) {
			recs, err := ch.AsCollection()
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(Batch, batch.FromRecords(recs)), nil
		},
	})
	r.Register(Converter{
		From: Batch, To: Collection,
		Fixed: batchFixed, PerByteNS: batchPerByteNS,
		Convert: func(ch *Channel) (*Channel, error) {
			b, err := ch.AsBatch()
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(Collection, b.ToRecords()), nil
		},
	})
}
