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
// and index buckets s by its float64 bits so any s is bracketed by two
// grid points without a search over the whole grid. A draw is an index
// lookup, a short bisection and a linear interpolation — no
// transcendental call.
type levelSampler struct {
	sGrid []float64 // sGrid[i] = −ln(1 − P(crossed by x_i)), non-decreasing
	tGrid []float64 // tGrid[i] = t0·10^(x_i), seconds
	// index[b] is the first grid point whose bucket is >= b (see bucket).
	index  []uint16
	loBits uint64  // float64 bits where bucket 0 ends and bucket 1 starts
	smax   float64 // sGrid's last value: a spacing sum reaching it never crosses
}

// The index is log-spaced, as the grid is uniform in log-time: bucket
// b >= 1 holds the s whose float64 bits lie (b−1)·2^bucketShift to
// b·2^bucketShift above loBits, so an octave of s spans 2^indexBits
// buckets, each about 0.14% of s wide. Bucket 0 holds every s below
// loBits, which is at most indexOctaves octaves under smax, so an index
// holds at most indexOctaves·2^indexBits + 3 entries (64 KB).
const (
	indexBits    = 9
	bucketShift  = 52 - indexBits
	indexOctaves = 64
)

// pCap keeps a grid probability that rounds to 1 at a finite s
// (−ln 2^-53 ≈ 36.7): no spacing sum of realistic size reaches it.
const pCap = 1 - 0x1p-53

func newLevelSampler(m *Model, level int) *levelSampler {
	ls := &levelSampler{
		sGrid: make([]float64, samplerGridPoints+1),
		tGrid: make([]float64, samplerGridPoints+1),
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
	lo := max(ls.sGrid[0], math.Ldexp(ls.smax, -indexOctaves))
	ls.loBits = math.Float64bits(lo)
	ls.index = make([]uint16, ls.bucket(ls.smax)+2)
	i := 0
	for b := range ls.index {
		for i <= samplerGridPoints && ls.bucket(ls.sGrid[i]) < b {
			i++
		}
		ls.index[b] = uint16(i)
	}
	return ls
}

// bucket returns the index bucket holding s >= 0. Float64 bits order
// like the values for s >= 0, so it is monotone in s, which is all the
// bracketing in timeAt relies on.
func (ls *levelSampler) bucket(s float64) int {
	d := int64(math.Float64bits(s) - ls.loBits)
	if d < 0 {
		return 0
	}
	return int(d>>bucketShift) + 1
}

// timeAt maps a spacing sum s < smax to a crossing time in seconds. Grid
// points in buckets below s's lie below s and those in buckets above lie
// above it, so s's bucket brackets it between index entries, and the
// bisection inside settles on the one grid cell holding s, whichever
// bracket it starts from. The time is then interpolated linearly in s
// across the cell, within which (0.0024 decades) the time curve is within
// 0.6 % of linear.
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

// LineSampler draws a written line's error crossings lazily, one level
// stream at a time: a write draws each level's first crossing, and a
// caller that sees a crossing pass draws that level's next one.
//
// Method: for each level, the crossing times of that level's n cells are
// n i.i.d. draws from the level's (defective) crossing-time distribution.
// Their ascending order is the inverse CDF of the ascending order
// statistics of n uniforms, which the Rényi exponential-spacings
// construction builds as running sums of independent spacings. Because
// the spacings are independent, the next crossing can be drawn when the
// previous one has passed, with the same law as drawing all of them at
// the write. A level stream ends at the modelled horizon or after K
// crossings. A write costs one spacing per active level; a crossing costs
// one more when a caller passes it.
type LineSampler struct {
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
	pool [][Levels]uint16
}

// Stream is one active level's crossing stream on a written line.
type Stream struct {
	// Next is the time of the level's next crossing in seconds after the
	// write, +Inf once the level has no crossing left before the horizon
	// or has reached K crossings.
	Next float64
	// Sum is the spacing sum of the next crossing.
	Sum float64
	// Cells is the number of the line's cells written at this level.
	Cells int32
	// Passed counts the crossings passed so far.
	Passed int32
}

// headFloats is how many floats SampleCrossings writes per stream.
const headFloats = 3

// countPoolSize is the number of presampled data patterns. Large enough
// that pattern reuse across a simulation adds no visible correlation.
const countPoolSize = 4096

// NewLineSampler builds a sampler for lines of ncells cells with the given
// level mix, drawing at most k crossings per level.
func NewLineSampler(m *Model, mix LevelMix, ncells, k int) (*LineSampler, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if ncells < 1 || ncells > math.MaxUint16 {
		return nil, fmt.Errorf("pcm: ncells must be in [1, %d], got %d", math.MaxUint16, ncells)
	}
	if k < 1 {
		return nil, fmt.Errorf("pcm: k must be >= 1, got %d", k)
	}
	s := &LineSampler{mix: mix, ncells: ncells, k: k}
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
	s.pool = make([][Levels]uint16, countPoolSize)
	for i := range s.pool {
		s.pool[i] = s.sampleCounts(poolRNG)
	}
	return s, nil
}

// Streams returns the number of streams a line carries, one per active
// level.
func (s *LineSampler) Streams() int { return len(s.active) }

// sampleCounts draws a multinomial split of the line's cells across levels
// (the data pattern written this time).
func (s *LineSampler) sampleCounts(r *stats.RNG) [Levels]uint16 {
	var counts [Levels]uint16
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
		counts[level] = uint16(c)
		remaining -= c
		massLeft -= s.mix[level]
	}
	counts[Levels-1] = uint16(remaining)
	return counts
}

// SampleCrossings simulates one line write: it draws the data pattern
// and each active level's first crossing, and returns the stream heads,
// headFloats per stream in Streams order: the level's cell count, the
// spacing sum of its first crossing, and that crossing's time in seconds
// after the write (+Inf if it has none). Heads unpacks them; Advance
// draws each later crossing.
//
// The out slice is reused if it has capacity.
func (s *LineSampler) SampleCrossings(r *stats.RNG, out []float64) []float64 {
	out = out[:0]
	counts := &s.pool[r.Intn(countPoolSize)]
	for a, level := range s.active {
		st := Stream{Cells: int32(counts[level])}
		s.draw(r, a, &st)
		out = append(out, float64(st.Cells), st.Sum, st.Next)
	}
	return out
}

// Heads unpacks the stream heads SampleCrossings returned into dst, which
// holds Streams entries, and returns the earliest of their crossing
// times (+Inf if none).
func (s *LineSampler) Heads(heads []float64, dst []Stream) float64 {
	next := math.Inf(1)
	for a := range dst {
		h := heads[a*headFloats : (a+1)*headFloats]
		dst[a] = Stream{Cells: int32(h[0]), Sum: h[1], Next: h[2]}
		next = min(next, h[2])
	}
	return next
}

// Advance counts stream a's next crossing as passed and draws the one
// after it.
func (s *LineSampler) Advance(r *stats.RNG, a int, st *Stream) {
	st.Passed++
	s.draw(r, a, st)
}

// draw sets st.Next to the time of its crossing number st.Passed+1. By
// Rényi, the ascending order statistics of n uniforms are 1 − exp(−S_j)
// for the partial sums S_j of exponential spacings E/(n−j). The grid
// lives in that s domain, so each sum is tested against the horizon and
// inverted without leaving it.
func (s *LineSampler) draw(r *stats.RNG, a int, st *Stream) {
	j := st.Passed
	if j >= st.Cells || int(j) >= s.k {
		st.Next = math.Inf(1)
		return
	}
	ls := s.levels[s.active[a]]
	st.Sum += r.Exponential(1) / float64(st.Cells-j)
	if st.Sum >= ls.smax {
		st.Next = math.Inf(1)
		return
	}
	st.Next = ls.timeAt(st.Sum)
}
