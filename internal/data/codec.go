package data

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
)

// This file implements the two wire formats data quanta travel in:
//
//   - CSV with a typed header, the human-facing format used by the
//     CLIs; and
//   - a compact binary format used by the simulated DFS blocks and by
//     the shuffle byte-accounting of the Spark simulator.
//
// Both round-trip every Value kind, including vectors.

// WriteCSV writes records as CSV preceded by a typed header line of the
// form "name:type,...". Null values serialise as empty cells.
func WriteCSV(w io.Writer, s *Schema, recs []Record) error {
	cw := csv.NewWriter(w)
	header := make([]string, s.Len())
	for i := 0; i < s.Len(); i++ {
		f := s.Field(i)
		header[i] = f.Name + ":" + f.Type.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("data: write csv header: %w", err)
	}
	row := make([]string, s.Len())
	for _, r := range recs {
		if err := s.Validate(r); err != nil {
			return err
		}
		for i := 0; i < r.Len(); i++ {
			row[i] = r.Field(i).String()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("data: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a typed-header CSV stream produced by WriteCSV and
// returns the schema and records.
func ReadCSV(r io.Reader) (*Schema, []Record, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("data: read csv header: %w", err)
	}
	fields := make([]Field, len(header))
	for i, h := range header {
		name, typ, ok := cutLast(h, ':')
		if !ok {
			return nil, nil, fmt.Errorf("data: csv header cell %q is not name:type", h)
		}
		k, err := ParseKind(typ)
		if err != nil {
			return nil, nil, err
		}
		fields[i] = Field{Name: name, Type: k}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("data: read csv row: %w", err)
		}
		vals := make([]Value, len(row))
		for i, cell := range row {
			v, err := ParseValue(cell, fields[i].Type)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
		}
		recs = append(recs, NewRecord(vals...))
	}
	return schema, recs, nil
}

// cutLast splits s at the last occurrence of sep, so field names may
// themselves contain the separator.
func cutLast(s string, sep byte) (before, after string, found bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// Binary format: each record is a uvarint field count followed by
// fields; each field is a kind byte followed by a kind-specific payload.

// WriteBinary writes records in the compact binary format and returns
// the number of payload bytes written. It buffers w itself unless w is a
// *bufio.Writer, which it writes through and flushes.
//
// It writes straight into the buffer and allocates nothing per record,
// field or string. A failed write sticks in the bufio.Writer, which then
// writes nothing more, and surfaces from Flush; the count stops growing
// at the first failure.
func WriteBinary(w io.Writer, recs []Record) (int64, error) {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	var n int64
	var buf [binary.MaxVarintLen64]byte
	n += writeUvarint(bw, &buf, uint64(len(recs)))
	for _, r := range recs {
		n += writeUvarint(bw, &buf, uint64(r.Len()))
		for _, v := range r.Fields() {
			k := v.Kind()
			if bw.WriteByte(byte(k)) == nil {
				n++
			}
			switch k {
			case KindNull:
			case KindBool, KindInt:
				n += writeUvarint(bw, &buf, zigzag(v.int()))
			case KindFloat:
				n += writeUvarint(bw, &buf, v.n)
			case KindString:
				n += writeUvarint(bw, &buf, uint64(v.len()))
				m, _ := bw.WriteString(v.str())
				n += int64(m)
			case KindVector:
				n += writeUvarint(bw, &buf, uint64(v.len()))
				for _, f := range v.vec() {
					n += writeUvarint(bw, &buf, math.Float64bits(f))
				}
			default:
				return n, fmt.Errorf("data: binary-encode unknown kind %d", k)
			}
		}
	}
	return n, bw.Flush()
}

// writeUvarint writes v as a uvarint through buf and returns the bytes
// bw took.
func writeUvarint(bw *bufio.Writer, buf *[binary.MaxVarintLen64]byte, v uint64) int64 {
	m, _ := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	return int64(m)
}

// preallocCap bounds slice preallocation from length prefixes read off
// the wire. A declared count is attacker-controlled until the payload
// behind it has actually been read — a handful of header bytes could
// otherwise demand a multi-gigabyte allocation. Every element needs at
// least one payload byte, so decoding grows via append and hits a
// clean EOF error instead.
func preallocCap(n uint64) int {
	const maxPrealloc = 1 << 16
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// ReadBinary reads a batch written by WriteBinary.
func ReadBinary(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("data: binary record count: %w", err)
	}
	recs := make([]Record, 0, preallocCap(count))
	for rec := uint64(0); rec < count; rec++ {
		arity, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("data: binary arity: %w", err)
		}
		vals := make([]Value, 0, preallocCap(arity))
		for i := uint64(0); i < arity; i++ {
			kb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("data: binary kind: %w", err)
			}
			switch Kind(kb) {
			case KindNull:
				vals = append(vals, Null())
			case KindBool:
				u, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				vals = append(vals, Bool(unzigzag(u) != 0))
			case KindInt:
				u, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				vals = append(vals, Int(unzigzag(u)))
			case KindFloat:
				u, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				vals = append(vals, Float(math.Float64frombits(u)))
			case KindString:
				n, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				b, err := readFullCapped(br, n)
				if err != nil {
					return nil, err
				}
				vals = append(vals, Str(string(b)))
			case KindVector:
				n, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				vec := make([]float64, 0, preallocCap(n))
				for j := uint64(0); j < n; j++ {
					u, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, err
					}
					vec = append(vec, math.Float64frombits(u))
				}
				vals = append(vals, Vec(vec))
			default:
				return nil, fmt.Errorf("data: binary-decode unknown kind %d", kb)
			}
		}
		recs = append(recs, NewRecord(vals...))
	}
	return recs, nil
}

// readFullCapped reads exactly n bytes, allocating in bounded chunks so
// a corrupt length prefix cannot demand the whole allocation up front.
func readFullCapped(r io.Reader, n uint64) ([]byte, error) {
	var out []byte
	for n > 0 {
		c := preallocCap(n)
		start := len(out)
		out = append(out, make([]byte, c)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
		n -= uint64(c)
	}
	return out, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
