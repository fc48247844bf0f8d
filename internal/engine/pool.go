package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/pcm"
	"repro/internal/stats"
)

// statePool recycles run state between runs. Everything a run touches —
// the line-state slices, patrol order, scratch buffers, both RNGs and the
// demand generator's permutation and Zipf table — is retained; newState
// re-sizes and re-initialises every entry before use, so no value ever
// leaks from one run into the next.
var statePool = sync.Pool{
	New: func() any {
		return &state{rng: new(stats.RNG), genRNG: new(stats.RNG)}
	},
}

// release returns the state to the pool, dropping every reference the run
// borrowed from its Spec (scheme, policy, traffic source) so the pool
// never pins caller objects, and dropping the result (its Rounds slice
// now belongs to the caller). Sized scratch slices are kept — they are
// the point of pooling.
func (s *state) release() {
	s.spec = Spec{}
	s.sampler = nil
	s.wearM = nil
	s.acct = nil
	s.source = nil
	s.scheme = nil
	s.policy = nil
	s.lev = nil
	s.inj = nil
	s.ondie = nil
	s.prof = nil
	s.res = Result{}
	statePool.Put(s)
}

// grow returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified: callers fully initialise every
// entry (newState writes all slots before the first read).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// samplerKey identifies a drift sampler by everything that determines its
// tables: the device physics, the level mix, and the tracked-crossing
// count (cells per line is the pcm.CellsPerLine constant).
type samplerKey struct {
	par pcm.Params
	mix pcm.LevelMix
	k   int
}

// samplerCache shares pcm.LineSampler instances across runs. A sampler is
// deterministic in its parameters (its pattern pool is seeded from a
// fixed constant) and read-only during sampling, so concurrent runs of
// the same device can share one. Construction costs ~230 KB of
// inverse-CDF grids and bucket indexes (three active levels) plus a
// 32 KB pattern pool, which campaigns would otherwise pay per run.
var (
	samplerCache     sync.Map // samplerKey -> *pcm.LineSampler
	samplerCacheSize atomic.Int64
)

// samplerCacheCap bounds the cache. A matrix campaign uses a handful of
// (physics, mix, k) combinations; past the cap new combinations are built
// per run instead of cached, so pathological parameter sweeps cannot grow
// the cache without bound.
const samplerCacheCap = 64

func cachedSampler(par pcm.Params, mix pcm.LevelMix, k int) (*pcm.LineSampler, error) {
	key := samplerKey{par: par, mix: mix, k: k}
	if v, ok := samplerCache.Load(key); ok {
		return v.(*pcm.LineSampler), nil
	}
	model, err := pcm.NewModel(par)
	if err != nil {
		return nil, err
	}
	s, err := pcm.NewLineSampler(model, mix, pcm.CellsPerLine, k)
	if err != nil {
		return nil, err
	}
	if samplerCacheSize.Load() < samplerCacheCap {
		if _, loaded := samplerCache.LoadOrStore(key, s); !loaded {
			samplerCacheSize.Add(1)
		}
	}
	return s, nil
}
