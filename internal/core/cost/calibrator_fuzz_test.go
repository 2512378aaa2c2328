package cost

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzCalibrationRoundTrip hardens the calibration document the same
// way FuzzCodecRoundTrip hardens data.ReadBinary: arbitrary bytes must
// either be rejected with an error or decode into a calibrator whose
// re-encoding is a byte-exact fixpoint (decode→encode→decode stable),
// with every decoded factor still safe. The binary seeds are the
// format the document replaced; they must be rejected cleanly.
func FuzzCalibrationRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RHCAL"))
	f.Add([]byte("RHCAL\x01"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"schema":1}`))
	warm := NewCalibrator(CalibratorConfig{Decay: 0.5, MinSamples: 1})
	warm.Fold(
		[]AtomObs{
			{Kind: "Map", Platform: "java", Estimated: time.Second, Actual: 2 * time.Second},
			{Kind: "Join", Platform: "sparksim", Estimated: time.Minute, Actual: time.Second},
		},
		[]CardObs{{Kind: "Filter", Estimated: 100, Actual: 42}},
	)
	for _, cal := range []*Calibrator{NewCalibrator(CalibratorConfig{}), warm} {
		b, err := json.Marshal(cal)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if b, err = json.MarshalIndent(cal, "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		cal := NewCalibrator(CalibratorConfig{})
		if err := json.Unmarshal(in, cal); err != nil {
			return
		}
		enc, err := json.Marshal(cal)
		if err != nil {
			t.Fatalf("encode of a decoded document failed: %v", err)
		}
		cal2 := NewCalibrator(CalibratorConfig{})
		if err := json.Unmarshal(enc, cal2); err != nil {
			t.Fatalf("re-decode of valid encoding failed: %v", err)
		}
		if enc2, err := json.Marshal(cal2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("decode→encode→decode is not a fixpoint (%v):\n%s\n%s", err, enc, enc2)
		}
		// Whatever decoded, the factor invariants must hold: a cell is
		// either still guarded (exactly 1) or inside the clamp range.
		snap := cal.Snapshot()
		for _, c := range append(snap.Cost, snap.Card...) {
			inRange := c.Factor >= snap.MinFactor && c.Factor <= snap.MaxFactor
			if !(c.Factor > 0) || (c.Factor != 1 && !inRange) {
				t.Fatalf("decoded cell %q/%q has unsafe factor %v", c.Kind, c.Platform, c.Factor)
			}
		}
	})
}
