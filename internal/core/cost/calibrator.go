// The cost calibrator closes the optimizer's audit loop (RHEEMix-style
// cost learning): completed runs report, per operator kind and
// platform, what the cost model *predicted* and what execution
// *measured*, and the calibrator folds those residuals into
// multiplicative correction factors the optimizer applies to every
// subsequent plan. Factors always correct the RAW (uncalibrated) model
// output — the executor records raw estimates in its spans and audits
// precisely so the learning target stays fixed; learning against
// already-corrected estimates would feed the correction back into
// itself and diverge.
//
// Each cell keeps an exponentially decayed geometric mean of observed
// actual/estimated ratios: per observation, weight w ← w·λ + 1 and
// sumLog ← sumLog·λ + log(ratio), so the factor exp(sumLog/w) tracks
// recent traffic and old mistakes fade. A min-sample guard keeps the
// factor at exactly 1 until a cell has seen enough evidence, and hard
// clamps on both the per-observation ratio and the resulting factor
// guarantee a factor is always a positive, finite multiplier — the
// calibrator can re-rank platforms, but it can never price one at zero
// or below.
package cost

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// Calibrator defaults; CalibratorConfig overrides them per instance.
const (
	// DefaultDecay is the per-observation retention λ: each new
	// observation multiplies the accumulated weight by λ before adding
	// its own, so the effective memory is ~1/(1−λ) observations.
	DefaultDecay = 0.9
	// DefaultMinSamples is how many observations a cell needs before
	// its factor applies; below it the multiplier is exactly 1.
	DefaultMinSamples = 3
	// DefaultMinFactor / DefaultMaxFactor clamp the correction range: a
	// learned factor never scales a cost by more than 16× in either
	// direction, so one pathological run cannot zero a platform out.
	DefaultMinFactor = 1.0 / 16
	DefaultMaxFactor = 16.0
	// ratioClamp bounds a single observation's actual/estimated ratio
	// before it enters the decayed log-sum, so a wild outlier (a stalled
	// host, a zero-cost estimate) cannot dominate the geometric mean.
	ratioClamp = 1024.0
)

// CalibratorConfig tunes a Calibrator. Zero fields select defaults.
type CalibratorConfig struct {
	// Decay is the per-observation retention λ in (0, 1).
	Decay float64
	// MinSamples is the min-sample guard (observations before a cell's
	// factor applies). Negative means 1 (apply immediately).
	MinSamples int
	// MinFactor/MaxFactor clamp learned factors; both must be positive
	// with MinFactor ≤ MaxFactor.
	MinFactor float64
	MaxFactor float64
}

func (c CalibratorConfig) withDefaults() CalibratorConfig {
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = DefaultDecay
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MinSamples < 1 {
		c.MinSamples = 1
	}
	if c.MinFactor <= 0 || math.IsInf(c.MinFactor, 0) || math.IsNaN(c.MinFactor) {
		c.MinFactor = DefaultMinFactor
	}
	if c.MaxFactor <= 0 || math.IsInf(c.MaxFactor, 0) || math.IsNaN(c.MaxFactor) {
		c.MaxFactor = DefaultMaxFactor
	}
	if c.MinFactor > c.MaxFactor {
		c.MinFactor, c.MaxFactor = c.MaxFactor, c.MinFactor
	}
	return c
}

// AtomObs is one time observation from a completed run: for operators
// of one kind executed on one platform, the raw model estimate and the
// measured runtime attributed to them.
type AtomObs struct {
	Kind      string
	Platform  string
	Estimated time.Duration // raw (uncalibrated) model estimate
	Actual    time.Duration // measured execution time
}

// CardObs is one cardinality observation: an operator kind's raw
// rule-derived output-cardinality estimate versus the observed count.
type CardObs struct {
	Kind      string
	Estimated int64 // raw (uncalibrated) rule-derived estimate
	Actual    int64 // observed output cardinality
}

// cellKey identifies one cost-correction cell.
type cellKey struct {
	Kind     string
	Platform string
}

// cell is the decayed-geometric-mean state of one correction factor.
type cell struct {
	w      float64 // decayed observation weight
	sumLog float64 // decayed sum of log(ratio)
	n      int64   // lifetime observation count (min-sample guard)
}

func (ce *cell) observe(ratio, decay float64) {
	if !(ratio > 0) || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
		return
	}
	if ratio > ratioClamp {
		ratio = ratioClamp
	}
	if ratio < 1/ratioClamp {
		ratio = 1 / ratioClamp
	}
	ce.w = ce.w*decay + 1
	ce.sumLog = ce.sumLog*decay + math.Log(ratio)
	ce.n++
}

func (ce *cell) factor(cfg CalibratorConfig) float64 {
	if ce == nil || ce.n < int64(cfg.MinSamples) || ce.w <= 0 {
		return 1
	}
	f := math.Exp(ce.sumLog / ce.w)
	if math.IsNaN(f) || f < cfg.MinFactor {
		return cfg.MinFactor
	}
	if f > cfg.MaxFactor {
		return cfg.MaxFactor
	}
	return f
}

// Calibrator learns per-(operator kind, platform) cost corrections and
// per-kind cardinality corrections from completed runs. All methods
// are safe for concurrent use — the optimizer reads factors while runs
// fold — and every method tolerates a nil receiver (factor 1, no-op
// fold), so call sites need no nil guards.
type Calibrator struct {
	mu    sync.RWMutex
	cfg   CalibratorConfig
	cost  map[cellKey]*cell
	card  map[string]*cell
	folds int64 // Fold batches applied (restart-surviving via the document)
}

// NewCalibrator returns an empty calibrator (every factor 1).
func NewCalibrator(cfg CalibratorConfig) *Calibrator {
	return &Calibrator{
		cfg:  cfg.withDefaults(),
		cost: map[cellKey]*cell{},
		card: map[string]*cell{},
	}
}

// Fold absorbs one completed run's observations. Observations with a
// non-positive estimate or actual carry no signal and are skipped —
// in particular a zero actual (an operator that produced nothing in no
// measurable time) can never drive a factor toward zero.
func (c *Calibrator) Fold(atoms []AtomObs, cards []CardObs) {
	if c == nil || (len(atoms) == 0 && len(cards) == 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range atoms {
		if o.Kind == "" || o.Platform == "" || o.Estimated <= 0 || o.Actual <= 0 {
			continue
		}
		k := cellKey{Kind: o.Kind, Platform: o.Platform}
		ce := c.cost[k]
		if ce == nil {
			ce = &cell{}
			c.cost[k] = ce
		}
		ce.observe(float64(o.Actual)/float64(o.Estimated), c.cfg.Decay)
	}
	for _, o := range cards {
		if o.Kind == "" || o.Estimated <= 0 || o.Actual <= 0 {
			continue
		}
		ce := c.card[o.Kind]
		if ce == nil {
			ce = &cell{}
			c.card[o.Kind] = ce
		}
		ce.observe(float64(o.Actual)/float64(o.Estimated), c.cfg.Decay)
	}
	c.folds++
}

// CostFactor returns the multiplier for an operator kind's cost on a
// platform: a positive, finite value, exactly 1 until the cell clears
// the min-sample guard. Safe on a nil calibrator.
func (c *Calibrator) CostFactor(kind, platform string) float64 {
	if c == nil {
		return 1
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cost[cellKey{Kind: kind, Platform: platform}].factor(c.cfg)
}

// CardFactor returns the multiplier for an operator kind's estimated
// output cardinality (cardinalities are platform-independent, so card
// cells key on kind alone). Safe on a nil calibrator.
func (c *Calibrator) CardFactor(kind string) float64 {
	if c == nil {
		return 1
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.card[kind].factor(c.cfg)
}

// Folds returns how many Fold batches the calibrator has absorbed
// (including folds restored through UnmarshalJSON).
func (c *Calibrator) Folds() int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.folds
}

// calibrationSchema versions the calibration document. A reader takes
// only its own schema: a change to what a cell holds bumps it.
const calibrationSchema = 1

// CalibrationCell is one correction cell in a snapshot. Samples, Weight
// and SumLog are its state; Factor and Applied are derived from them
// and the config, and a reader ignores them.
type CalibrationCell struct {
	Kind     string  `json:"kind"`
	Platform string  `json:"platform,omitempty"` // empty on card cells
	Factor   float64 `json:"factor"`
	Samples  int64   `json:"samples"`
	// Applied reports whether the cell has cleared the min-sample guard
	// (false means the optimizer still sees factor 1 from it).
	Applied bool    `json:"applied"`
	Weight  float64 `json:"weight"`  // decayed observation weight w
	SumLog  float64 `json:"sum_log"` // decayed sum of log(ratio)
}

// CalibrationSnapshot is the calibrator's state as one document, cells
// sorted by key: the body of GET /calibration and what MarshalJSON
// writes.
type CalibrationSnapshot struct {
	Schema     int               `json:"schema"`
	Decay      float64           `json:"decay"`
	MinSamples int               `json:"min_samples"`
	MinFactor  float64           `json:"min_factor"`
	MaxFactor  float64           `json:"max_factor"`
	Folds      int64             `json:"folds"`
	Cost       []CalibrationCell `json:"cost"`
	Card       []CalibrationCell `json:"card"`
}

// Snapshot exports the calibrator's state, cells sorted by key. Safe
// on a nil calibrator (returns nil).
func (c *Calibrator) Snapshot() *CalibrationSnapshot {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := &CalibrationSnapshot{
		Schema:     calibrationSchema,
		Decay:      c.cfg.Decay,
		MinSamples: c.cfg.MinSamples,
		MinFactor:  c.cfg.MinFactor,
		MaxFactor:  c.cfg.MaxFactor,
		Folds:      c.folds,
		Cost:       make([]CalibrationCell, 0, len(c.cost)),
		Card:       make([]CalibrationCell, 0, len(c.card)),
	}
	for k, ce := range c.cost {
		s.Cost = append(s.Cost, ce.snapshot(k.Kind, k.Platform, c.cfg))
	}
	for k, ce := range c.card {
		s.Card = append(s.Card, ce.snapshot(k, "", c.cfg))
	}
	slices.SortFunc(s.Cost, compareCells)
	slices.SortFunc(s.Card, compareCells)
	return s
}

func (ce *cell) snapshot(kind, platform string, cfg CalibratorConfig) CalibrationCell {
	return CalibrationCell{
		Kind: kind, Platform: platform,
		Factor: ce.factor(cfg), Samples: ce.n,
		Applied: ce.n >= int64(cfg.MinSamples),
		Weight:  ce.w, SumLog: ce.sumLog,
	}
}

// compareCells orders cells by (kind, platform), the document's order.
func compareCells(a, b CalibrationCell) int {
	return cmp.Or(strings.Compare(a.Kind, b.Kind), strings.Compare(a.Platform, b.Platform))
}

// MarshalJSON writes the calibrator's Snapshot, its one serialized
// form: GET /calibration serves it, and rheem-serve keeps it in its
// state directory.
func (c *Calibrator) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// UnmarshalJSON replaces the calibrator's state with a document
// MarshalJSON wrote. The document comes from outside the program, so
// all of it is checked before anything is replaced: no unknown field,
// the current schema, a config equal to its defaulted form, no negative
// count, a positive weight exactly on cells with samples, a kind on
// every cell and a platform on exactly the cost cells, and keys in
// strictly ascending order — which rejects duplicates and makes
// decode→encode a fixpoint (FuzzCalibrationRoundTrip). JSON carries no
// NaN or infinity, so a restored calibrator upholds every factor
// invariant Fold does.
func (c *Calibrator) UnmarshalJSON(b []byte) error {
	if c == nil {
		return fmt.Errorf("cost: calibration: UnmarshalJSON on nil *Calibrator")
	}
	var s CalibrationSnapshot
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("cost: calibration: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("cost: calibration: data after the document")
	}
	cfg := CalibratorConfig{Decay: s.Decay, MinSamples: s.MinSamples, MinFactor: s.MinFactor, MaxFactor: s.MaxFactor}
	switch {
	case s.Schema != calibrationSchema:
		return fmt.Errorf("cost: calibration: schema %d, want %d", s.Schema, calibrationSchema)
	case cfg != cfg.withDefaults():
		return fmt.Errorf("cost: calibration: config outside valid range")
	case s.Folds < 0:
		return fmt.Errorf("cost: calibration: negative folds")
	}
	costM := make(map[cellKey]*cell, len(s.Cost))
	cardM := make(map[string]*cell, len(s.Card))
	if err := restoreCells(s.Cost, true, func(cc CalibrationCell, ce *cell) {
		costM[cellKey{Kind: cc.Kind, Platform: cc.Platform}] = ce
	}); err != nil {
		return err
	}
	if err := restoreCells(s.Card, false, func(cc CalibrationCell, ce *cell) { cardM[cc.Kind] = ce }); err != nil {
		return err
	}
	c.mu.Lock()
	c.cfg, c.folds, c.cost, c.card = cfg, s.Folds, costM, cardM
	c.mu.Unlock()
	return nil
}

// restoreCells checks one cell list of a document (cost says which)
// and hands each cell's state to put.
func restoreCells(cells []CalibrationCell, cost bool, put func(CalibrationCell, *cell)) error {
	for i, cc := range cells {
		switch {
		case cc.Kind == "":
			return fmt.Errorf("cost: calibration: cell %d has no kind", i)
		case cost && cc.Platform == "":
			return fmt.Errorf("cost: calibration: cost cell %q has no platform", cc.Kind)
		case !cost && cc.Platform != "":
			return fmt.Errorf("cost: calibration: card cell %q names platform %q", cc.Kind, cc.Platform)
		case cc.Samples < 0 || cc.Weight < 0 || (cc.Weight > 0) != (cc.Samples > 0):
			return fmt.Errorf("cost: calibration: cell %s/%s has weight %v with %d samples", cc.Kind, cc.Platform, cc.Weight, cc.Samples)
		case i > 0 && compareCells(cells[i-1], cc) >= 0:
			return fmt.Errorf("cost: calibration: cell %s/%s out of order", cc.Kind, cc.Platform)
		}
		put(cc, &cell{w: cc.Weight, sumLog: cc.SumLog, n: cc.Samples})
	}
	return nil
}
