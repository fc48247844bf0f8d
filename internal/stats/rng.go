// Package stats provides the deterministic random-number generation,
// probability distributions, and summary statistics used throughout the
// scrub simulator.
//
// Every stochastic component in the repository draws from a stats.RNG so
// that experiments are reproducible from a single seed: the same seed
// always yields the same error events, the same workload stream, and the
// same endurance draws, on every platform.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// xoshiro256**, seeded via SplitMix64. It is NOT safe for concurrent use;
// give each goroutine its own RNG (see Split).
type RNG struct {
	s [4]uint64

	// cached spare normal variate for the Box-Muller polar method
	haveSpare bool
	spare     float64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero,
// produces a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed using SplitMix64, guaranteeing
// a non-degenerate xoshiro state for any input.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro requires a not-all-zero state; SplitMix64 cannot produce four
	// consecutive zeros, but guard anyway for safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new RNG whose stream is statistically independent of r's
// future output. It is the supported way to fan a seed out to subsystems.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// SplitInto is Split writing into an existing generator instead of
// allocating one: it consumes the same single draw from r and leaves dst
// in exactly the state Split's result would have. Allocation-free, for
// callers that recycle their RNGs.
func (r *RNG) SplitInto(dst *RNG) {
	dst.Seed(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method with a
// rejection step to remove modulo bias. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.StdNormal()
}

// StdNormal returns a standard normal variate (mean 0, stddev 1).
func (r *RNG) StdNormal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// LogNormal returns exp(N(mu, sigma)): a lognormal variate parameterized by
// the mean and stddev of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponential variate with the given rate (λ > 0).
//
// It is a 256-layer Marsaglia–Tsang ziggurat. A call draws one Uint64:
// its low 8 bits pick a layer and its high 56 bits a magnitude within
// the layer's width. About 97.8% of calls return from that one draw with
// a multiply and no transcendental call. A draw landing in a layer's
// wedge takes one more Float64 and an exp, and is rejected (and the
// whole draw repeated) if it lies above the curve; one landing in the
// base strip past r takes one more Float64 and returns r − ln U. So the
// number of draws per variate is not fixed. Within a layer the output
// grid is its width × 2⁻⁵⁶: at most 1.2e-16 in the base strip and finer
// everywhere else, about Float64's 2⁻⁵³.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	for {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		j := u >> 8
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return x / rate
		}
		if i == 0 {
			// Past r the variate is r + Exp(1); 1 − Float64() is in (0, 1].
			return (zigR - math.Log(1-r.Float64())) / rate
		}
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return x / rate
		}
	}
}

// The exponential ziggurat covers e^{−x} with 256 layers of equal area
// zigV. Layer 0 is the base strip, [0, r] × [0, e^{−r}] plus the tail
// past r, taken as one rectangle of width q = zigV/e^{−r}. Layer i ≥ 1
// is the rectangle [0, x_i] × [e^{−x_i}, e^{−x_{i−1}}], with x_255 = r
// at the bottom and x_0 = 0 at the top. Its part left of x_{i−1} lies
// under the curve. zigR and zigV are the pair for which the recurrence
// below closes at x_0 = 0.
const (
	zigLayers = 256
	zigR      = 7.69711747013104972
	zigV      = 3.949659822581572e-3
)

var (
	zigK [zigLayers]uint64  // magnitudes below zigK[i] lie under the curve: x_{i−1}/x_i · 2⁵⁶
	zigW [zigLayers]float64 // magnitude-to-x scale: layer width × 2⁻⁵⁶
	zigF [zigLayers]float64 // e^{−x_i}, x_0 = 0: layer i's lower edge for i ≥ 1
)

func init() {
	const scale = 1 << 56
	q := zigV / math.Exp(-zigR)
	zigK[0] = uint64(zigR / q * scale)
	zigW[0] = q / scale
	zigF[0] = 1
	x := zigR
	zigW[zigLayers-1] = x / scale
	zigF[zigLayers-1] = math.Exp(-x)
	// Equal areas: x_i·(e^{−x_{i−1}} − e^{−x_i}) = v gives x_{i−1}.
	for i := zigLayers - 1; i > 1; i-- {
		inner := -math.Log(zigV/x + math.Exp(-x))
		zigK[i] = uint64(inner / x * scale)
		x = inner
		zigW[i-1] = x / scale
		zigF[i-1] = math.Exp(-x)
	}
	zigK[1] = 0 // x_0 = 0: nothing in the top layer is certainly under the curve
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth's product method; for large lambda the PTRS transformed
// rejection method keeps it O(1).
func (r *RNG) Poisson(lambda float64) int64 {
	switch {
	case lambda < 0:
		panic("stats: Poisson with negative lambda")
	case lambda == 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := int64(0)
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm for lambda >= 10.
func (r *RNG) poissonPTRS(lambda float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := k*logLambda - lambda - logGamma(k+1)
		if lhs <= rhs {
			return int64(k)
		}
	}
}

// logGamma is a thin wrapper over math.Lgamma discarding the sign (the
// argument is always positive here).
func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Binomial returns a binomial(n, p) variate: the number of successes in n
// independent trials with success probability p. It is exact and uses an
// inversion method for small n·p and a normal-approximation-free BTPE-lite
// (waiting-time) method otherwise, so it remains correct for extreme p.
func (r *RNG) Binomial(n int64, p float64) int64 {
	switch {
	case n < 0:
		panic("stats: Binomial with negative n")
	case p < 0 || p > 1:
		panic("stats: Binomial with p outside [0,1]")
	case n == 0 || p == 0:
		return 0
	case p == 1:
		return n
	}
	// Exploit symmetry so p <= 1/2.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	np := float64(n) * p
	if np < 30 {
		// Geometric waiting-time method: expected iterations ≈ np + 1.
		q := math.Log(1 - p)
		var count int64
		pos := int64(0)
		for {
			g := int64(math.Floor(math.Log(1-r.Float64()) / q))
			pos += g + 1
			if pos > n {
				return count
			}
			count++
		}
	}
	// Inversion via Poisson-like stepping is too slow for big np; use the
	// sum of a normal-free recursive split: Binomial(n,p) =
	// Binomial(k,p) + Binomial(n-k,p). Split until np < 30.
	half := n / 2
	return r.Binomial(half, p) + r.Binomial(n-half, p)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Shuffle permutes the first n elements using the provided swap function
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
