// Package bch implements binary primitive BCH codes over GF(2^m):
// systematic encoding, syndrome computation, Berlekamp–Massey error
// location, and Chien search. These are the "strong ECC" codes the scrub
// study relies on to tolerate multiple drift errors per line between
// scrub visits (SECDED corrects 1 bit; BCH-t corrects t bits).
//
// Each step is the plain scalar algorithm: a bit-serial LFSR encoder,
// per-bit syndrome accumulation and a Horner-evaluated Chien search. The
// simulator judges a line by comparing its error count with T, so only
// tests, fuzzing and the codec examples run this code.
//
// Codes may be shortened: a payload of any length up to K data bits is
// supported, with the unused high-order message positions fixed at zero.
//
// Bit layout of a codeword buffer (LSB-first within each byte):
//
//	bit 0 .. P-1          parity (coefficients x^0 .. x^(P-1))
//	bit P .. P+msgBits-1  message (coefficients x^P ..)
//
// where P = N - K is the parity width.
package bch

import (
	"errors"
	"fmt"

	"repro/internal/gf2"
)

// ErrUncorrectable reports that a received word contains more errors than
// the code can correct (or an error pattern that decodes outside the
// shortened code's support).
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Code is a binary BCH code with designed correction capability T over
// GF(2^m). Immutable after construction and safe for concurrent use.
type Code struct {
	field *gf2.Field
	n     int // full code length 2^m - 1
	k     int // maximum data bits
	t     int // designed correction capability

	gen []byte // generator polynomial coefficients (0/1), degree n-k
}

// New constructs a t-error-correcting binary BCH code over GF(2^m).
func New(m, t int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: correction capability t=%d must be >= 1", t)
	}
	field, err := gf2.NewField(m)
	if err != nil {
		return nil, err
	}
	n := int(field.N())
	// g(x) = lcm of minimal polynomials of α, α³, ..., α^(2t-1).
	gen := gf2.Poly{1}
	for i := 1; i <= 2*t-1; i += 2 {
		gen = gf2.LCM(field, gen, gf2.MinimalPoly(field, int64(i)))
	}
	deg := gen.Degree()
	if deg >= n {
		return nil, fmt.Errorf("bch: t=%d too large for m=%d (parity %d >= n %d)", t, m, deg, n)
	}
	coeffs := make([]byte, deg+1)
	for i := 0; i <= deg; i++ {
		c := gen.Coeff(i)
		if c > 1 {
			return nil, fmt.Errorf("bch: internal error, generator has non-binary coefficient")
		}
		coeffs[i] = byte(c)
	}
	return &Code{field: field, n: n, k: n - deg, t: t, gen: coeffs}, nil
}

// MustNew is New that panics on error; for tests and fixed configurations.
func MustNew(m, t int) *Code {
	c, err := New(m, t)
	if err != nil {
		panic(err)
	}
	return c
}

// ForPayload returns the smallest (by field degree) BCH code that can
// correct t errors in a payload of msgBits data bits, searching m = 5..16.
func ForPayload(msgBits, t int) (*Code, error) {
	if msgBits < 1 {
		return nil, fmt.Errorf("bch: payload must be at least 1 bit")
	}
	for m := 5; m <= 16; m++ {
		c, err := New(m, t)
		if err != nil {
			continue
		}
		if c.k >= msgBits {
			return c, nil
		}
	}
	return nil, fmt.Errorf("bch: no supported field fits %d data bits at t=%d", msgBits, t)
}

// N returns the full (unshortened) code length in bits.
func (c *Code) N() int { return c.n }

// K returns the maximum number of data bits.
func (c *Code) K() int { return c.k }

// T returns the designed correction capability in bits.
func (c *Code) T() int { return c.t }

// ParityBits returns the number of check bits, N - K.
func (c *Code) ParityBits() int { return c.n - c.k }

// Generator returns a copy of the generator polynomial's coefficients
// (index = degree, values 0/1).
func (c *Code) Generator() []byte { return append([]byte(nil), c.gen...) }

// CodewordBytes returns the buffer size in bytes needed to hold a codeword
// for a msgBits-bit payload.
func (c *Code) CodewordBytes(msgBits int) int {
	return (msgBits + c.ParityBits() + 7) / 8
}

func getBit(buf []byte, i int) byte { return (buf[i>>3] >> uint(i&7)) & 1 }
func setBit(buf []byte, i int)      { buf[i>>3] |= 1 << uint(i&7) }
func flipBit(buf []byte, i int)     { buf[i>>3] ^= 1 << uint(i&7) }

func (c *Code) checkEncodeArgs(msg []byte, msgBits int) error {
	if msgBits < 1 || msgBits > c.k {
		return fmt.Errorf("bch: msgBits=%d out of range [1,%d]", msgBits, c.k)
	}
	if len(msg)*8 < msgBits {
		return fmt.Errorf("bch: message buffer too short: %d bytes for %d bits", len(msg), msgBits)
	}
	return nil
}

func (c *Code) checkDecodeArgs(msgBits int) error {
	if msgBits < 1 || msgBits > c.k {
		return fmt.Errorf("bch: msgBits=%d out of range [1,%d]", msgBits, c.k)
	}
	return nil
}

// Encode systematically encodes msgBits bits of msg (LSB-first packing)
// and returns a fresh codeword buffer of CodewordBytes(msgBits) bytes.
// It returns an error if msgBits exceeds K or msg is too short.
func (c *Code) Encode(msg []byte, msgBits int) ([]byte, error) {
	if err := c.checkEncodeArgs(msg, msgBits); err != nil {
		return nil, err
	}
	p := c.ParityBits()
	cw := make([]byte, c.CodewordBytes(msgBits))
	// Copy message bits into positions p..p+msgBits-1.
	for i := 0; i < msgBits; i++ {
		if getBit(msg, i) == 1 {
			setBit(cw, p+i)
		}
	}
	// parity = (m(x)·x^p) mod g(x), by a bit-serial LFSR over GF(2).
	rem := make([]byte, p)
	for i := msgBits - 1; i >= 0; i-- {
		feedback := getBit(msg, i) ^ rem[p-1]
		// Shift rem up by one degree.
		copy(rem[1:], rem[:p-1])
		rem[0] = 0
		if feedback == 1 {
			for j := 0; j < p; j++ {
				rem[j] ^= c.gen[j]
			}
		}
	}
	for j := 0; j < p; j++ {
		if rem[j] == 1 {
			setBit(cw, j)
		}
	}
	return cw, nil
}

// ExtractMessage copies the message bits out of a codeword into a fresh
// buffer of ceil(msgBits/8) bytes.
func (c *Code) ExtractMessage(cw []byte, msgBits int) []byte {
	p := c.ParityBits()
	out := make([]byte, (msgBits+7)/8)
	for i := 0; i < msgBits; i++ {
		if getBit(cw, p+i) == 1 {
			setBit(out, i)
		}
	}
	return out
}

// syndromes computes S_1..S_2t one set bit at a time through the
// field's antilog table. The boolean result is true if every syndrome is
// zero (no detected error).
func (c *Code) syndromes(cw []byte, msgBits int) ([]uint32, bool) {
	total := c.ParityBits() + msgBits
	synd := make([]uint32, 2*c.t)
	clean := true
	for i := 0; i < total; i++ {
		if getBit(cw, i) == 0 {
			continue
		}
		for j := range synd {
			synd[j] ^= c.field.Exp(int64(i) * int64(j+1))
		}
	}
	for _, s := range synd {
		if s != 0 {
			clean = false
			break
		}
	}
	return synd, clean
}

// Detect reports whether the codeword contains any detectable error. This
// is the cheap "check" operation: syndrome computation only, no error
// location. A return of false means the word is a valid codeword (which,
// for error patterns beyond the code's minimum distance, can rarely be a
// miscorrection-style false negative, exactly as in hardware).
func (c *Code) Detect(cw []byte, msgBits int) bool {
	_, clean := c.syndromes(cw, msgBits)
	return !clean
}

// Decode corrects up to T bit errors in cw in place and returns the number
// of bits corrected. It returns ErrUncorrectable (leaving cw unspecified)
// when the error pattern exceeds the code's capability.
func (c *Code) Decode(cw []byte, msgBits int) (int, error) {
	if err := c.checkDecodeArgs(msgBits); err != nil {
		return 0, err
	}
	synd, clean := c.syndromes(cw, msgBits)
	if clean {
		return 0, nil
	}
	sigma := c.berlekampMassey(synd)
	L := len(sigma) - 1
	if L > c.t {
		return 0, ErrUncorrectable
	}
	positions, ok := c.chien(sigma, c.ParityBits()+msgBits)
	if !ok || len(positions) != L {
		return 0, ErrUncorrectable
	}
	for _, pos := range positions {
		flipBit(cw, pos)
	}
	// Paranoia: verify the corrected word is a codeword. This catches
	// miscorrections of >t-error patterns that happen to yield a
	// consistent locator with roots inside the shortened support.
	if _, cleanNow := c.syndromes(cw, msgBits); !cleanNow {
		return 0, ErrUncorrectable
	}
	return len(positions), nil
}

// berlekampMassey returns the error-locator polynomial σ(x) (lowest-degree
// LFSR) for the syndrome sequence, as coefficients σ[0..L] with σ[0] = 1.
func (c *Code) berlekampMassey(s []uint32) []uint32 {
	f := c.field
	n := len(s)
	cPoly := make([]uint32, n+1)
	bPoly := make([]uint32, n+1)
	cPoly[0], bPoly[0] = 1, 1
	L := 0
	m := 1
	b := uint32(1)
	for i := 0; i < n; i++ {
		// Discrepancy d = S_i + Σ_{j=1..L} c_j·S_{i-j}.
		d := s[i]
		for j := 1; j <= L; j++ {
			d ^= f.Mul(cPoly[j], s[i-j])
		}
		if d == 0 {
			m++
			continue
		}
		coef := f.Div(d, b)
		if 2*L <= i {
			tPoly := append([]uint32(nil), cPoly...)
			for j := 0; j+m <= n; j++ {
				cPoly[j+m] ^= f.Mul(coef, bPoly[j])
			}
			L = i + 1 - L
			bPoly = tPoly
			b = d
			m = 1
		} else {
			for j := 0; j+m <= n; j++ {
				cPoly[j+m] ^= f.Mul(coef, bPoly[j])
			}
			m++
		}
	}
	return cPoly[:L+1]
}

// chien finds error positions by evaluating σ(α^{-i}) with Horner's
// rule at every candidate position. The second result is false if a root
// lies outside the shortened support (i.e. in the always-zero region),
// which means the pattern is invalid.
func (c *Code) chien(sigma []uint32, support int) ([]int, bool) {
	f := c.field
	var positions []int
	degree := len(sigma) - 1
	for i := 0; i < c.n && len(positions) <= degree; i++ {
		x := f.Exp(-int64(i))
		if gf2.PolyEval(f, gf2.Poly(sigma), x) == 0 {
			if i >= support {
				return nil, false
			}
			positions = append(positions, i)
		}
	}
	return positions, true
}
