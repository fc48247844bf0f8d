package stats

import "math"

// NormalCDF returns P(X <= x) for X ~ N(mean, stddev).
func NormalCDF(x, mean, stddev float64) float64 {
	if stddev <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mean)/(stddev*math.Sqrt2))
}

// StdNormalCDF returns Φ(x), the standard normal CDF.
func StdNormalCDF(x float64) float64 { return NormalCDF(x, 0, 1) }

// QFunc returns Q(x) = 1 - Φ(x), the standard normal tail probability.
// It is numerically accurate deep into the tail (uses erfc directly).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// StdNormalQuantile returns Φ⁻¹(p) by Wichura's algorithm AS241
// (PPND16): a single rational approximation per region — the body
// |p−0.5| <= 0.425, then two tail regions in r = sqrt(−ln min(p, 1−p))
// — with relative error about 1e-16 and no call to erfc or exp. It
// panics for p outside (0, 1).
func StdNormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: StdNormalQuantile requires p in (0,1)")
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - q*q
		return q * (((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080e0) /
			(((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
				3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
				5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
				4.2313330701600911252e1)*r + 1)
	}
	// 1−p is exact for p > 0.5, so the upper tail keeps full relative
	// precision in 1−p.
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var x float64
	if r <= 5 {
		r -= 1.6
		x = (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258e0)*r+
			3.64784832476320460504e0)*r+5.76949722146069140550e0)*r+
			4.63033784615654529590e0)*r + 1.42343711074968357734e0) /
			(((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
				1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
				6.89767334985100004550e-1)*r+1.67638483018380384940e0)*r+
				2.05319162663775882187e0)*r + 1)
	} else {
		r -= 5
		x = (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+1.78482653991729133580e0)*r+
			5.46378491116411436990e0)*r + 6.65790464350110377720e0) /
			(((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
				1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
				1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
				5.99832206555887937690e-1)*r + 1)
	}
	if q < 0 {
		return -x
	}
	return x
}

// BinomialTailGE returns P(X >= k) for X ~ Binomial(n, p), computed by
// direct summation in log space. Exact (to float precision) and safe for
// the small n (≤ a few thousand) used by line-level error analysis.
func BinomialTailGE(n int, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	sum := 0.0
	for i := k; i <= n; i++ {
		lg := logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ
		sum += math.Exp(lg)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialPMF returns P(X == k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lg)
}

// logChoose returns log(n choose k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

// Zipf samples from a Zipf(s) distribution over {0, 1, ..., n-1}: element i
// has probability proportional to 1/(i+1)^s. Sampling is O(log n) via a
// precomputed cumulative table (built once, O(n)).
type Zipf struct {
	cum []float64 // cum[i] = P(X <= i), strictly increasing to 1
}

// NewZipf builds a Zipf sampler over n elements with skew s >= 0 (s == 0 is
// uniform). It panics if n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("stats: NewZipf with negative skew")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	inv := 1 / total
	for i := range cum {
		cum[i] *= inv
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// N returns the number of elements in the sampler's support.
func (z *Zipf) N() int { return len(z.cum) }

// Sample draws one element.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first index with cum[i] >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability of element i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cum) {
		return 0
	}
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}
