package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"rheem/internal/data"
)

// A row is one result row as plain Go values: int64, float64, string or
// []float64. Reference answers are computed into rows during set-up,
// never through rheem; results come back as records (in-process) or
// JSON (over HTTP) and are normalised into rows before comparison.
type row []any

// answer is one job's expected output.
type answer struct {
	rows []row
	// ordered answers must match row for row; the others are compared as
	// multisets (the engines do not promise an order without ORDER BY),
	// with rows holding the expected rows already sorted.
	ordered bool
}

func newAnswer(rows []row, ordered bool) *answer {
	if !ordered {
		sortRows(rows)
	}
	return &answer{rows: rows, ordered: ordered}
}

// relTol is how far a float may sit from its reference, relative to the
// larger magnitude: platforms fold sums in different orders.
const relTol = 1e-9

func floatsMatch(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// cellsMatch compares one expected value with one result value:
// integers and strings exactly, floats within relTol.
func cellsMatch(want, got any) bool {
	switch w := want.(type) {
	case int64:
		g, ok := got.(int64)
		return ok && g == w
	case string:
		g, ok := got.(string)
		return ok && g == w
	case float64:
		g, ok := got.(float64)
		return ok && floatsMatch(w, g)
	case []float64:
		g, ok := got.([]float64)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !floatsMatch(w[i], g[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// cellCompare orders two values of the same type exactly; it only has to
// be a consistent total order for the multiset comparison.
func cellCompare(a, b any) int {
	switch x := a.(type) {
	case int64:
		y, _ := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case float64:
		y, _ := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case string:
		y, _ := b.(string)
		return strings.Compare(x, y)
	}
	return 0
}

func sortRows(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := 0; c < len(a) && c < len(b); c++ {
			if cmp := cellCompare(a[c], b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(a) < len(b)
	})
}

// check compares a result with the answer and describes the first
// difference.
func (a *answer) check(got []row) error {
	if len(got) != len(a.rows) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(a.rows))
	}
	if !a.ordered {
		sortRows(got)
	}
	for i, want := range a.rows {
		if len(got[i]) != len(want) {
			return fmt.Errorf("row %d has %d fields, want %d", i, len(got[i]), len(want))
		}
		for c := range want {
			if !cellsMatch(want[c], got[i][c]) {
				return fmt.Errorf("row %d field %d: got %v, want %v", i, c, got[i][c], want[c])
			}
		}
	}
	return nil
}

// rowsFromRecords normalises an in-process result.
func rowsFromRecords(recs []data.Record) ([]row, error) {
	out := make([]row, len(recs))
	for i, rec := range recs {
		r := make(row, rec.Len())
		for f := range r {
			switch v := rec.Field(f); v.Kind() {
			case data.KindInt:
				r[f] = v.Int()
			case data.KindFloat:
				r[f] = v.Float()
			case data.KindString:
				r[f] = v.Str()
			case data.KindVector:
				r[f] = v.Vec()
			default:
				return nil, fmt.Errorf("row %d field %d: unexpected %s value", i, f, v.Kind())
			}
		}
		out[i] = r
	}
	return out, nil
}

// rowsFromJSON normalises the rows of a GET /jobs/{id}/result body,
// decoded with UseNumber so integers stay exact. JSON does not say
// whether 3 is an int or a float, so the expected row's types decide.
func rowsFromJSON(raw [][]any, like []row) ([]row, error) {
	out := make([]row, len(raw))
	for i, in := range raw {
		r := make(row, len(in))
		for f, v := range in {
			var want any
			if len(like) > 0 && f < len(like[0]) {
				want = like[0][f]
			}
			cell, err := cellFromJSON(v, want)
			if err != nil {
				return nil, fmt.Errorf("row %d field %d: %w", i, f, err)
			}
			r[f] = cell
		}
		out[i] = r
	}
	return out, nil
}

func cellFromJSON(v, want any) (any, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case json.Number:
		if _, isInt := want.(int64); isInt {
			return x.Int64()
		}
		return x.Float64()
	case []any:
		vec := make([]float64, len(x))
		for i, e := range x {
			n, ok := e.(json.Number)
			if !ok {
				return nil, fmt.Errorf("vector element %d is %T", i, e)
			}
			f, err := n.Float64()
			if err != nil {
				return nil, err
			}
			vec[i] = f
		}
		return vec, nil
	}
	return nil, fmt.Errorf("unexpected JSON value %T", v)
}
