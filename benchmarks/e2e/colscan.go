package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"rheem"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// colscan is colscan-1m: (id, value) rows through
// FilterWhere(value < t) → ProjectCols(value) → AggregateCols(sum),
// pinned to javaengine on the default Config. Kernels and batch do
// nearly all the work; planning, channels and the service do none.
type colscan struct {
	seed uint64
	recs []data.Record
	// sumBelow[t] is the reference answer for threshold t: the sum of
	// the values below t, from a histogram of the raw values.
	sumBelow [colscanDomain + 1]int64
	ctx      *rheem.Context
}

const (
	colscanDomain = 1000
	// Job thresholds stay within ±5 of the middle: every job has its own
	// answer, and the filter keeps half the rows on all of them.
	colscanLow, colscanSpan = colscanDomain/2 - 5, 11
)

func (w *colscan) name() string { return "colscan-1m" }
func (w *colscan) clients() int { return 1 }

func (w *colscan) setup(seed uint64, sc scale) error {
	w.seed = seed
	rng := newRand(seed, 1)
	w.recs = make([]data.Record, sc.colscanRows)
	var hist [colscanDomain]int64
	for i := range w.recs {
		v := int64(rng.IntN(colscanDomain))
		w.recs[i] = data.NewRecord(data.Int(int64(i)), data.Int(v))
		hist[v]++
	}
	for v := 0; v < colscanDomain; v++ {
		w.sumBelow[v+1] = w.sumBelow[v] + int64(v)*hist[v]
	}
	var err error
	w.ctx, err = rheem.NewContext(rheem.Config{})
	return err
}

func (w *colscan) engine() *rheem.Context { return w.ctx }

func (w *colscan) close() { w.ctx.Close() }

func (w *colscan) threshold(i int) int64 {
	return int64(colscanLow + pick(w.seed, i, colscanSpan))
}

func (w *colscan) inputDigest() string {
	h := sha256.New()
	for _, r := range w.recs {
		binary.Write(h, binary.LittleEndian, r.Field(1).Int())
	}
	for i := 0; i < 64; i++ {
		binary.Write(h, binary.LittleEndian, w.threshold(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *colscan) build(rec *recorder, i, parent int) (*plan.Plan, error) {
	id := rec.begin(i, parent, "plan.build")
	defer rec.end(id)
	b := plan.NewBuilder("colscan")
	s := b.Source("rows", plan.Collection(w.recs))
	s.CardHint = int64(len(w.recs))
	f := b.FilterWhere(s, 1, plan.Less, data.Int(w.threshold(i)))
	b.Collect(b.AggregateCols(b.ProjectCols(f, 1), plan.AggSum))
	return b.Build()
}

func (w *colscan) optOptions(*physical.Plan) optimizer.Options {
	return optimizer.Options{FixedPlatform: javaengine.ID}
}

func (w *colscan) verify(i int, recs []data.Record) error {
	want := w.sumBelow[w.threshold(i)]
	if len(recs) != 1 || recs[0].Len() != 1 || recs[0].Field(0).Kind() != data.KindInt {
		return fmt.Errorf("colscan: got %d records, want one integer", len(recs))
	}
	if got := recs[0].Field(0).Int(); got != want {
		return fmt.Errorf("colscan: sum %d, want %d", got, want)
	}
	return nil
}

func (w *colscan) sample() []data.Record { return w.recs }
func (w *colscan) inputRows() int        { return len(w.recs) }

func (w *colscan) job(i int) error {
	_, err := engineJob(w, w.ctx, nil, i, func(i int) ([]data.Record, error) {
		p, err := w.build(nil, i, 0)
		if err != nil {
			return nil, err
		}
		recs, _, err := w.ctx.Execute(p, rheem.OnPlatform(javaengine.ID))
		return recs, err
	})
	return err
}
