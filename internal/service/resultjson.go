// The body of GET /jobs/{id}/result, written straight from the records:
// boxing every cell into an any for encoding/json to reflect over, and
// re-indenting what it wrote, cost more than the service spent running a
// small job. What comes out decodes to what encoding/json produced for
// the same records, value for value.

package service

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"rheem/internal/data"
)

// resultBufs holds the buffers result bodies are built in. It stays a
// sync.Pool, not an engine.FreeList: a body's buffer may grow to a
// megabyte, and between bursts of reads the collector should have it back
// rather than a list keeping several per P for the life of the server.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResult is the largest buffer kept for the next result: one
// huge result must not pin its megabytes for the life of the server.
const maxPooledResult = 1 << 20

// appendResult appends the result body: the envelope and one JSON array
// per record, every value in its natural JSON shape.
func appendResult(dst []byte, id string, recs []data.Record, digest string) []byte {
	dst = appendString(append(dst, `{"id":`...), id)
	dst = strconv.AppendInt(append(dst, `,"records":`...), int64(len(recs)), 10)
	dst = appendString(append(dst, `,"digest":`...), digest)
	dst = append(dst, `,"rows":[`...)
	for i, rec := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for f, v := range rec.Fields() {
			if f > 0 {
				dst = append(dst, ',')
			}
			dst = appendValue(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// appendValue appends one field: a vector is an array of numbers (null
// when it is nil, as encoding/json writes a nil slice), a null is null.
func appendValue(dst []byte, v data.Value) []byte {
	switch v.Kind() {
	case data.KindBool:
		return strconv.AppendBool(dst, v.Bool())
	case data.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case data.KindFloat:
		return appendFloat(dst, v.Float())
	case data.KindString:
		return appendString(dst, v.Str())
	case data.KindVector:
		vec := v.Vec()
		if vec == nil {
			break
		}
		dst = append(dst, '[')
		for i, f := range vec {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		return append(dst, ']')
	}
	return append(dst, "null"...)
}

// appendFloat appends f as encoding/json does — the shortest digits that
// round-trip, in ES6 number-to-string form: exponent notation below 1e-6
// and from 1e21 — and null for a NaN or an infinity, which JSON cannot
// say (the result's digest still covers the real value).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2], dst = dst[n-1], dst[:n-1] // e-09 → e-9
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string: quotes, backslashes and control
// characters escaped, invalid UTF-8 replaced by U+FFFD as encoding/json
// replaces it, U+2028 and U+2029 escaped for JavaScript's sake.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), "\ufffd"...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
