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
// The j-th spacing is an Exponential(n−j) draw, and the running spacing
// sum s maps to the j-th order statistic's normal score z = Φ⁻¹(1 − e^{−s})
// through weakestZ's table. A draw therefore costs one ziggurat
// exponential, a table lookup and one exp. Every s ≥ 0 maps to a finite z,
// so the result always has exactly K positive entries.
func (m *Model) SampleWeakest(r *stats.RNG, out []float64) []float64 {
	k := m.p.K
	if cap(out) < k {
		out = make([]float64, k)
	}
	out = out[:k]
	// Lognormal quantile 10^(μ + σ·z), as exp(μ·ln10 + σ·ln10·z).
	mu := m.p.MeanLog10Writes * math.Ln10
	sigma := m.p.SigmaLog10 * math.Ln10
	n := m.p.CellsPerLine
	s := 0.0
	for j := range out {
		s += r.Exponential(float64(n - j))
		out[j] = math.Exp(mu + sigma*weakestZ(s))
	}
	return out
}

// The normal-score table covers spacing sums s ∈ [2^zMinExp, 2^zMaxExp)
// with zBits mantissa bits per octave: bucket i spans s from node i to
// node i+1, where node i = 2^(zMinExp + i>>zBits)·(1 + (i&(2^zBits−1))/2^zBits).
// Within a bucket z is interpolated linearly in s, which is linear in
// the low 52−zBits mantissa bits. The interpolation is furthest from the
// exact z in the top octaves, about 3e-6 near s = 16, and is held within
// 1e-5 everywhere (TestWeakestZTableSweep). Sums outside the range take
// the exact path; they are rare: s < 2^-40 needs a first spacing below
// 2^-40, and s ≥ 32 has probability at most about K·e^{−32} per line.
const (
	zBits   = 8
	zMinExp = -40
	zMaxExp = 5
	// zFracBits is the mantissa bits below a bucket index.
	zFracBits  = 52 - zBits
	zFracScale = 1.0 / (1 << zFracBits)
	zBuckets   = (zMaxExp - zMinExp) << zBits
)

var (
	// zLoBits and zSpanBits bound the table in float64 bit patterns,
	// which order like the values for s ≥ 0.
	zLoBits   = math.Float64bits(math.Ldexp(1, zMinExp))
	zSpanBits = math.Float64bits(math.Ldexp(1, zMaxExp)) - zLoBits
	// zNodes[i] is the exact z at node i.
	zNodes [zBuckets + 1]float64
)

func init() {
	for i := range zNodes {
		s := math.Ldexp(1+float64(i&(1<<zBits-1))/(1<<zBits), zMinExp+i>>zBits)
		zNodes[i] = exactZ(s)
	}
}

// weakestZ returns Φ⁻¹(1 − e^{−s}) for a spacing sum s ≥ 0, interpolated
// from the table inside its range and exact outside it. s = 0 (an
// exponential draw can be exactly 0) is taken as the smallest positive
// float64, so its z is finite, about −38.5.
func weakestZ(s float64) float64 {
	if b := math.Float64bits(s) - zLoBits; b < zSpanBits {
		i := b >> zFracBits
		z0 := zNodes[i]
		f := float64(b&(1<<zFracBits-1)) * zFracScale
		return z0 + f*(zNodes[i+1]-z0)
	}
	return exactZ(max(s, math.SmallestNonzeroFloat64))
}

// exactZ returns Φ⁻¹(1 − e^{−s}) for s > 0, passing AS241 whichever of
// 1 − e^{−s} and e^{−s} is below one half so it keeps full precision:
// −expm1(−s) rounds to 1 for s past ~37, where e^{−s} keeps all its
// digits.
func exactZ(s float64) float64 {
	if s < math.Ln2 {
		return stats.StdNormalQuantile(-math.Expm1(-s))
	}
	return -stats.StdNormalQuantile(math.Exp(-s))
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
