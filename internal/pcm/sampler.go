package pcm

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// samplerGridPoints controls the resolution of the per-level inverse-CDF
// tables. 4096 points over 10 decades gives ~0.0024 decades (<0.6 % in
// time) of interpolation granularity, far below the decade-scale spacing
// of scrub intervals.
const samplerGridPoints = 4096

// levelSampler inverts one level's crossing-time CDF in the
// exponential-spacings domain s = −ln(1−p), where the Rényi construction
// in SampleCrossings produces its order statistics. sGrid holds the CDF
// over a log-time grid mapped into that domain, tGrid the grid's times,
// and index buckets [0, smax) so any s is bracketed by two grid points
// without a search over the whole grid. A draw is an index lookup, a
// short bisection and a linear interpolation — no transcendental call.
type levelSampler struct {
	sGrid []float64 // sGrid[i] = −ln(1 − P(crossed by x_i)), non-decreasing
	tGrid []float64 // tGrid[i] = t0·10^(x_i), seconds
	// index[b] is the first grid point whose bucket is >= b; bucket b
	// covers s in [b, b+1)/perS.
	index []int32
	perS  float64 // buckets per unit of s
	smax  float64 // sGrid's last value: a spacing sum reaching it never crosses
}

// pCap keeps a grid probability that rounds to 1 at a finite s
// (−ln 2^-53 ≈ 36.7): no spacing sum of realistic size reaches it.
const pCap = 1 - 0x1p-53

func newLevelSampler(m *Model, level int) *levelSampler {
	ls := &levelSampler{
		sGrid: make([]float64, samplerGridPoints+1),
		tGrid: make([]float64, samplerGridPoints+1),
		index: make([]int32, samplerGridPoints+1),
	}
	dx := m.p.MaxLog10Time / samplerGridPoints
	prev := 0.0
	for i := 0; i <= samplerGridPoints; i++ {
		x := float64(i) * dx
		// The analytic curve is monotone; enforce it against float jitter.
		p := math.Min(math.Max(m.ErrProbAtX(level, x), prev), pCap)
		ls.sGrid[i] = -math.Log1p(-p)
		ls.tGrid[i] = m.TimeOf(x)
		prev = p
	}
	ls.smax = ls.sGrid[samplerGridPoints]
	if ls.smax > 0 {
		ls.perS = samplerGridPoints / ls.smax
	}
	i := 0
	for b := range ls.index {
		for i <= samplerGridPoints && ls.bucket(ls.sGrid[i]) < b {
			i++
		}
		ls.index[b] = int32(i)
	}
	return ls
}

// bucket returns the index bucket holding s. It is monotone in s, which
// is all the bracketing in timeAt relies on.
func (ls *levelSampler) bucket(s float64) int {
	return min(int(s*ls.perS), samplerGridPoints-1)
}

// timeAt maps a spacing sum s < smax to a crossing time in seconds. Grid
// points in buckets below s's lie below s and those in buckets above lie
// above it, so s's bucket brackets it between index entries; with one
// bucket per grid cell the bisection inside takes O(1) expected steps.
// The time is then interpolated linearly in s across the cell, within
// which (0.0024 decades) the time curve is within 0.6 % of linear.
func (ls *levelSampler) timeAt(s float64) float64 {
	if s <= ls.sGrid[0] {
		return ls.tGrid[0]
	}
	b := ls.bucket(s)
	// Invariant: sGrid[lo] < s <= sGrid[hi].
	lo := max(int(ls.index[b])-1, 0)
	hi := min(int(ls.index[b+1]), samplerGridPoints)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ls.sGrid[mid] < s {
			lo = mid
		} else {
			hi = mid
		}
	}
	sl, sh := ls.sGrid[lo], ls.sGrid[hi]
	tl := ls.tGrid[lo]
	return tl + (s-sl)/(sh-sl)*(ls.tGrid[hi]-tl)
}

// LineSampler draws, for a freshly written line, the earliest error
// crossing times among its cells — the simulator's entire per-line state.
//
// Method: for each level, the crossing times of that level's n cells are
// n i.i.d. draws from the level's (defective) crossing-time distribution.
// We generate the ascending order statistics of n uniforms with the Rényi
// exponential-spacings construction and push each through the inverse CDF,
// stopping at the modelled horizon or after K draws. Cost is O(K) per
// level per line write, independent of how many cells would eventually
// drift across.
type LineSampler struct {
	model  *Model
	mix    LevelMix
	ncells int
	k      int
	// levels holds an inverse-CDF grid for each active level, nil for
	// the rest; active lists the levels with a non-zero crossing
	// probability present in the mix.
	levels [Levels]*levelSampler
	active []int
	// pool holds presampled multinomial level-count vectors ("data
	// patterns"). Each line write draws one uniformly, so the per-write
	// marginal distribution of counts is the exact multinomial while the
	// hot path avoids per-write binomial sampling.
	pool [][Levels]int
}

// countPoolSize is the number of presampled data patterns. Large enough
// that pattern reuse across a simulation adds no visible correlation.
const countPoolSize = 4096

// NewLineSampler builds a sampler for lines of ncells cells with the given
// level mix, tracking the k earliest crossings per line.
func NewLineSampler(m *Model, mix LevelMix, ncells, k int) (*LineSampler, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if ncells < 1 {
		return nil, fmt.Errorf("pcm: ncells must be >= 1, got %d", ncells)
	}
	if k < 1 {
		return nil, fmt.Errorf("pcm: k must be >= 1, got %d", k)
	}
	s := &LineSampler{model: m, mix: mix, ncells: ncells, k: k}
	for level := 0; level < Levels; level++ {
		if mix[level] == 0 {
			continue
		}
		if ls := newLevelSampler(m, level); ls.smax > 0 {
			s.levels[level] = ls
			s.active = append(s.active, level)
		}
	}
	// Presample the data-pattern pool with a seed derived from the model
	// parameters only, so two samplers over the same physics agree.
	poolRNG := stats.NewRNG(0x9c0ffee5)
	s.pool = make([][Levels]int, countPoolSize)
	for i := range s.pool {
		s.pool[i] = s.sampleCounts(poolRNG)
	}
	return s, nil
}

// K returns the number of earliest crossings tracked per line.
func (s *LineSampler) K() int { return s.k }

// Cells returns the number of cells per line.
func (s *LineSampler) Cells() int { return s.ncells }

// Model returns the underlying drift model.
func (s *LineSampler) Model() *Model { return s.model }

// sampleCounts draws a multinomial split of the line's cells across levels
// (the data pattern written this time).
func (s *LineSampler) sampleCounts(r *stats.RNG) [Levels]int {
	var counts [Levels]int
	remaining := int64(s.ncells)
	massLeft := 1.0
	for level := 0; level < Levels-1; level++ {
		if remaining == 0 || massLeft <= 0 {
			break
		}
		p := s.mix[level] / massLeft
		if p > 1 {
			p = 1
		}
		c := r.Binomial(remaining, p)
		counts[level] = int(c)
		remaining -= c
		massLeft -= s.mix[level]
	}
	counts[Levels-1] = int(remaining)
	return counts
}

// SampleCrossings simulates one line write and returns the sorted earliest
// crossing times (seconds since the write), at most K entries. If exactly
// K entries are returned, the line may have further crossings beyond the
// last entry: callers must treat an error count that reaches K as
// "at least K" (saturation).
//
// The out slice is reused if it has capacity.
func (s *LineSampler) SampleCrossings(r *stats.RNG, out []float64) []float64 {
	out = out[:0]
	counts := &s.pool[r.Intn(countPoolSize)]
	for _, level := range s.active {
		n := counts[level]
		if n == 0 {
			continue
		}
		ls := s.levels[level]
		// Rényi: the ascending order statistics of n uniforms are
		// 1 − exp(−S_j) for the partial sums S_j of exponential spacings
		// E/(n−j). The grid lives in that s domain, so each sum is tested
		// against the horizon and inverted without leaving it.
		sum := 0.0
		for j := 0; j < n && j < s.k; j++ {
			sum += r.Exponential(1) / float64(n-j)
			if sum >= ls.smax {
				break
			}
			out = append(out, ls.timeAt(sum))
		}
	}
	// Insertion sort: out holds at most a few × k ≤ 48 entries and each
	// level's contribution is already ascending, so this beats the
	// general-purpose sort on the hot path.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	if len(out) > s.k {
		out = out[:s.k]
	}
	return out
}
