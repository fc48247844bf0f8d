// Package wear models PCM write endurance: each cell survives a lognormal
// number of writes before becoming stuck, and stuck cells turn into
// permanent (hard) errors that consume ECC budget. This is the other half
// of the scrub trade-off the paper exploits — every scrub write-back costs
// endurance, so policies that write less defer hard errors.
package wear

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Params configures the endurance distribution.
type Params struct {
	// MeanLog10Writes is the median cell endurance in log10 writes
	// (8 → 10^8 writes, the usual PCM figure).
	MeanLog10Writes float64
	// SigmaLog10 is the cell-to-cell endurance spread in decades.
	SigmaLog10 float64
	// CellsPerLine is the number of cells whose endurance a line aggregates.
	CellsPerLine int
	// K is how many of the weakest cells are tracked per line; error counts
	// at or above K saturate.
	K int
}

// DefaultParams returns the baseline endurance model: median 10^8 writes
// with 0.25 decades of spread over 256-cell lines, tracking the 12 weakest
// cells.
func DefaultParams() Params {
	return Params{
		MeanLog10Writes: 8,
		SigmaLog10:      0.25,
		CellsPerLine:    256,
		K:               12,
	}
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if p.MeanLog10Writes <= 0 {
		return fmt.Errorf("wear: MeanLog10Writes must be positive")
	}
	if p.SigmaLog10 < 0 {
		return fmt.Errorf("wear: SigmaLog10 must be non-negative")
	}
	if p.CellsPerLine < 1 {
		return fmt.Errorf("wear: CellsPerLine must be >= 1")
	}
	if p.K < 1 || p.K > p.CellsPerLine {
		return fmt.Errorf("wear: K must be in [1, CellsPerLine]")
	}
	return nil
}

// Model samples and evaluates per-line endurance state.
type Model struct {
	p Params
}

// NewModel validates params and builds a model.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{p: p}, nil
}

// MustModel is NewModel that panics on error.
func MustModel(p Params) *Model {
	m, err := NewModel(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns a copy of the model's parameters.
func (m *Model) Params() Params { return m.p }

// SampleWeakest draws the K smallest endurances (in writes, ascending)
// among the line's cells, using the Rényi order-statistics construction so
// cost is O(K) rather than O(cells). The out slice is reused if it has
// capacity.
//
// The K uniforms are drawn in one batched Fill and transformed in place:
// each draw u_j is finite and < 1 (Float64 < 1 keeps every exponential
// spacing finite, so -expm1(-sum) < 1 always), hence all K order
// statistics exist and the result always has exactly K entries.
func (m *Model) SampleWeakest(r *stats.RNG, out []float64) []float64 {
	k := m.p.K
	if cap(out) < k {
		out = make([]float64, k)
	}
	out = out[:k]
	r.Fill(out)
	n := m.p.CellsPerLine
	sum := 0.0
	for j := 0; j < k; j++ {
		// Exponential(1) spacing from the batched uniform.
		sum += -math.Log(1-out[j]) / float64(n-j)
		u := -math.Expm1(-sum)
		// Lognormal quantile: 10^(mean + sigma·Φ⁻¹(u)), as exp(q·ln 10).
		q := m.p.MeanLog10Writes + m.p.SigmaLog10*stats.StdNormalQuantile(u)
		out[j] = math.Exp(q * math.Ln10)
	}
	return out
}

// DeadCells returns how many of the tracked weakest cells have exceeded
// their endurance after the given number of line writes. A return equal to
// K means "at least K" (saturated).
func DeadCells(weakest []float64, writes uint64) int {
	w := float64(writes)
	// weakest is ascending; linear scan is fine for K ~ 12.
	for i, e := range weakest {
		if w < e {
			return i
		}
	}
	return len(weakest)
}

// StuckWrongProb is the probability that a stuck cell disagrees with the
// data most recently written over it, for uniform 4-level data.
const StuckWrongProb = 0.75

// TwoBitProb is the probability that a wrong stuck cell corrupts two data
// bits rather than one: of the 12 ordered unequal level pairs under the
// 2-bit Gray code, 4 differ in both bits.
const TwoBitProb = 1.0 / 3.0

// StuckErrors samples the persistent error contribution of dead cells
// right after a line rewrite: how many stuck cells actively disagree with
// the stored data, and how many bit errors they contribute.
func StuckErrors(r *stats.RNG, deadCells int) (wrongCells, bitErrors int) {
	for i := 0; i < deadCells; i++ {
		if !r.Bernoulli(StuckWrongProb) {
			continue
		}
		wrongCells++
		if r.Bernoulli(TwoBitProb) {
			bitErrors += 2
		} else {
			bitErrors++
		}
	}
	return wrongCells, bitErrors
}

// ExpectedFirstDeathWrites returns the expected number of writes at which
// the line's weakest cell dies: the mean of the first order statistic of
// CellsPerLine lognormals, estimated analytically via the quantile of the
// expected first uniform order statistic (median-of-minimum approximation)
// — accurate to a few percent for the narrow sigmas used here.
func (m *Model) ExpectedFirstDeathWrites() float64 {
	// E[U_(1)] = 1/(n+1) for n uniforms.
	u := 1.0 / float64(m.p.CellsPerLine+1)
	q := m.p.MeanLog10Writes + m.p.SigmaLog10*stats.StdNormalQuantile(u)
	return math.Pow(10, q)
}

// LifetimeWrites returns the number of line writes at which the expected
// number of dead cells first exceeds the ECC correction budget t — the
// point where hard errors alone defeat the code. Solved in closed form:
// dead(w) ≈ n·Φ((log10 w − μ)/σ) = t  ⇒  w = 10^(μ + σ·Φ⁻¹(t/n)).
func (m *Model) LifetimeWrites(budget int) float64 {
	if budget < 1 {
		budget = 1
	}
	frac := float64(budget) / float64(m.p.CellsPerLine)
	if frac >= 1 {
		return math.Inf(1)
	}
	q := m.p.MeanLog10Writes + m.p.SigmaLog10*stats.StdNormalQuantile(frac)
	return math.Pow(10, q)
}
