// Package gf2 implements arithmetic in the binary Galois fields GF(2^m)
// and polynomials over them. It is the algebraic substrate for the BCH
// error-correcting codes in internal/bch and the Reed–Solomon codes in
// internal/rs. Multiplication and inversion use log/antilog tables built
// once per field, so they are O(1). The tables stay private to Field:
// codecs reach them only through its methods.
//
// Field elements are represented as uint32 bit vectors of the coefficients
// of the polynomial basis: element a(x) = a0 + a1·x + ... + a(m-1)·x^(m-1)
// is the integer a0 | a1<<1 | ... .
package gf2

import "fmt"

// defaultPrimitive maps m to a primitive polynomial of degree m over GF(2),
// written as a bit vector including the x^m term. These are the standard
// minimum-weight primitive polynomials used in coding-theory texts.
var defaultPrimitive = map[int]uint32{
	2:  0x7,     // x^2 + x + 1
	3:  0xB,     // x^3 + x + 1
	4:  0x13,    // x^4 + x + 1
	5:  0x25,    // x^5 + x^2 + 1
	6:  0x43,    // x^6 + x + 1
	7:  0x89,    // x^7 + x^3 + 1
	8:  0x11D,   // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,   // x^9 + x^4 + 1
	10: 0x409,   // x^10 + x^3 + 1
	11: 0x805,   // x^11 + x^2 + 1
	12: 0x1053,  // x^12 + x^6 + x^4 + x + 1
	13: 0x201B,  // x^13 + x^4 + x^3 + x + 1
	14: 0x4443,  // x^14 + x^10 + x^6 + x + 1
	15: 0x8003,  // x^15 + x + 1
	16: 0x1100B, // x^16 + x^12 + x^3 + x + 1
}

// Field is a finite field GF(2^m). The zero value is not usable; construct
// with NewField.
type Field struct {
	m      int    // extension degree
	n      uint32 // field size minus one: 2^m - 1
	prim   uint32 // primitive polynomial bit vector
	logTbl []uint32
	expTbl []uint32 // doubled length to avoid a modulo in Mul
}

// NewField constructs GF(2^m) for 2 <= m <= 16 using the package's default
// primitive polynomial for that degree.
func NewField(m int) (*Field, error) {
	prim, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("gf2: no default primitive polynomial for m=%d (supported: 2..16)", m)
	}
	return NewFieldWithPoly(m, prim)
}

// MustField is NewField that panics on error; for tests and constants.
func MustField(m int) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFieldWithPoly constructs GF(2^m) with an explicit primitive polynomial
// (bit vector including the x^m term). The polynomial is verified to be
// primitive by checking that x generates the full multiplicative group.
func NewFieldWithPoly(m int, prim uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf2: m=%d out of supported range [2,16]", m)
	}
	if prim>>uint(m) != 1 {
		return nil, fmt.Errorf("gf2: primitive polynomial %#x does not have degree %d", prim, m)
	}
	n := uint32(1)<<uint(m) - 1
	f := &Field{
		m:      m,
		n:      n,
		prim:   prim,
		logTbl: make([]uint32, n+1),
		expTbl: make([]uint32, 2*n),
	}
	// Generate powers of alpha (= x) by shifting and reducing.
	x := uint32(1)
	for i := uint32(0); i < n; i++ {
		f.expTbl[i] = x
		f.expTbl[i+n] = x
		if f.logTbl[x] != 0 && x != 1 {
			return nil, fmt.Errorf("gf2: polynomial %#x is not primitive for m=%d (α^%d repeats)", prim, m, i)
		}
		f.logTbl[x] = i
		x <<= 1
		if x>>uint(m) != 0 {
			x ^= prim
		}
	}
	if f.expTbl[0] != 1 {
		return nil, fmt.Errorf("gf2: internal table construction error")
	}
	// If alpha's order were a proper divisor of n we would revisit 1 early;
	// verify full period: after n steps x must return to 1.
	if x != 1 {
		return nil, fmt.Errorf("gf2: polynomial %#x is not primitive for m=%d", prim, m)
	}
	return f, nil
}

// M returns the extension degree m.
func (f *Field) M() int { return f.m }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() uint32 { return f.n + 1 }

// N returns the multiplicative group order, 2^m - 1.
func (f *Field) N() uint32 { return f.n }

// Add returns a + b (= a XOR b in characteristic 2).
func (f *Field) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns the product a·b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.expTbl[f.logTbl[a]+f.logTbl[b]]
}

// Div returns a/b. It panics if b == 0.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("gf2: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.expTbl[f.logTbl[a]+f.n-f.logTbl[b]]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func (f *Field) Inv(a uint32) uint32 {
	if a == 0 {
		panic("gf2: inverse of zero")
	}
	return f.expTbl[f.n-f.logTbl[a]]
}

// Exp returns α^i for any integer exponent i (negative allowed).
func (f *Field) Exp(i int64) uint32 {
	n := int64(f.n)
	i %= n
	if i < 0 {
		i += n
	}
	return f.expTbl[i]
}

// Log returns the discrete log of a (the i with α^i = a). Panics if a == 0.
func (f *Field) Log(a uint32) uint32 {
	if a == 0 {
		panic("gf2: log of zero")
	}
	return f.logTbl[a]
}

// Pow returns a^e for e >= 0.
func (f *Field) Pow(a uint32, e int64) uint32 {
	if e < 0 {
		panic("gf2: negative exponent in Pow; use Exp for alpha powers")
	}
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	le := (int64(f.logTbl[a]) * e) % int64(f.n)
	return f.expTbl[le]
}

// Sqr returns a².
func (f *Field) Sqr(a uint32) uint32 { return f.Mul(a, a) }

// IsValid reports whether v is a representable element of the field.
func (f *Field) IsValid(v uint32) bool { return v <= f.n }
