package data

import (
	"bytes"
	"strconv"
	"testing"
)

// The quantum-level micro-benchmarks: what it costs to build, compare,
// hash and decode the values every row-path operator handles.

var (
	sinkRecord Record
	sinkInt    int
	sinkHash   uint64
)

// benchValues is a mixed bag of the kinds a row usually carries.
func benchValues() []Value {
	vals := make([]Value, 1024)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = Int(int64(i * 7919 % 257))
		case 1:
			vals[i] = Float(float64(i%97) / 3)
		case 2:
			vals[i] = Str("well-" + strconv.Itoa(i%61))
		default:
			vals[i] = Int(int64(i % 3))
		}
	}
	return vals
}

func BenchmarkNewRecord5(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(NewRecord(Int(0), Float(0), Float(0), Float(0), Int(0)).Bytes()))
	for i := 0; i < b.N; i++ {
		x := float64(i)
		sinkRecord = NewRecord(Int(int64(i)), Float(x), Float(2*x), Float(3*x), Int(1))
	}
}

func BenchmarkCompare(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	b.SetBytes(int64(2 * NewRecord(vals[0]).Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += Compare(vals[i%len(vals)], vals[(i*31+4)%len(vals)])
	}
}

func BenchmarkHash(b *testing.B) {
	vals := benchValues()
	b.ReportAllocs()
	b.SetBytes(int64(NewRecord(vals[0]).Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHash ^= Hash(vals[i%len(vals)], 0)
	}
}

func BenchmarkReadBinary(b *testing.B) {
	recs := make([]Record, 10_000)
	for i := range recs {
		x := float64(i%1000) / 8
		recs[i] = NewRecord(Int(int64(i%32)), Int(int64(i)), Float(x), Float(2*x), Str("well-"+strconv.Itoa(i%61)))
	}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, recs); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ReadBinary(bytes.NewReader(raw))
		if err != nil || len(out) != len(recs) {
			b.Fatal(len(out), err)
		}
	}
}
