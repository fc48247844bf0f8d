package ecc

import "fmt"

// SECDED is an extended Hamming code over an arbitrary payload: it corrects
// any single bit error and detects any double bit error in one word. This
// is the codec behind the DRAM-style baseline scrub.
//
// Codeword layout (LSB-first bit packing in the returned byte slice):
// the classical 1-indexed Hamming arrangement, with parity bits at
// power-of-two positions, data bits filling the rest, plus an overall
// parity bit appended at the end.
type SECDED struct {
	dataBits  int
	hamBits   int // Hamming parity bits (excluding overall parity)
	totalBits int // dataBits + hamBits + 1
	// dataPos[i] is the 1-indexed Hamming position of data bit i.
	dataPos []int
}

// NewSECDED builds a SECDED codec for the given payload width in bits.
func NewSECDED(dataBits int) (*SECDED, error) {
	if dataBits < 1 {
		return nil, fmt.Errorf("ecc: SECDED payload must be >= 1 bit, got %d", dataBits)
	}
	r := hammingCheckBits(dataBits)
	n := dataBits + r // 1-indexed positions 1..n
	c := &SECDED{
		dataBits:  dataBits,
		hamBits:   r,
		totalBits: n + 1,
		dataPos:   make([]int, dataBits),
	}
	di := 0
	for p := 1; p <= n; p++ {
		if p&(p-1) == 0 { // power of two: parity position
			continue
		}
		c.dataPos[di] = p
		di++
	}
	if di != dataBits {
		return nil, fmt.Errorf("ecc: internal SECDED layout error")
	}
	return c, nil
}

// MustSECDED is NewSECDED that panics on error.
func MustSECDED(dataBits int) *SECDED {
	c, err := NewSECDED(dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

// DataBits returns the payload width in bits.
func (c *SECDED) DataBits() int { return c.dataBits }

// CheckBits returns the number of check bits (Hamming parity + overall).
func (c *SECDED) CheckBits() int { return c.hamBits + 1 }

// CodewordBits returns the total codeword width in bits.
func (c *SECDED) CodewordBits() int { return c.totalBits }

// CodewordBytes returns the codeword buffer size in bytes.
func (c *SECDED) CodewordBytes() int { return (c.totalBits + 7) / 8 }

// Encode returns a fresh codeword for the first DataBits bits of data.
func (c *SECDED) Encode(data []byte) ([]byte, error) {
	if len(data)*8 < c.dataBits {
		return nil, fmt.Errorf("ecc: data buffer too short: %d bytes for %d bits", len(data), c.dataBits)
	}
	cw := make([]byte, c.CodewordBytes())
	n := c.totalBits - 1
	// Place data bits. Codeword bit index = Hamming position - 1.
	for i := 0; i < c.dataBits; i++ {
		if getBit(data, i) == 1 {
			setBit(cw, c.dataPos[i]-1)
		}
	}
	// Hamming parity bits: parity bit at position 2^j covers all positions
	// with bit j set.
	for j := 0; (1 << uint(j)) <= n; j++ {
		pp := 1 << uint(j)
		parity := byte(0)
		for p := 1; p <= n; p++ {
			if p != pp && p&pp != 0 && getBit(cw, p-1) == 1 {
				parity ^= 1
			}
		}
		if parity == 1 {
			setBit(cw, pp-1)
		}
	}
	// Overall parity over everything so far, stored at bit index n.
	overall := byte(0)
	for p := 1; p <= n; p++ {
		overall ^= getBit(cw, p-1)
	}
	if overall == 1 {
		setBit(cw, n)
	}
	return cw, nil
}

// syndrome computes the Hamming syndrome (the XOR of the positions of
// every set bit) and the overall parity of cw.
func (c *SECDED) syndrome(cw []byte) (synd int, overall byte) {
	n := c.totalBits - 1
	for p := 1; p <= n; p++ {
		if getBit(cw, p-1) == 1 {
			synd ^= p
			overall ^= 1
		}
	}
	overall ^= getBit(cw, n)
	return synd, overall
}

// Detect reports whether cw contains a detectable error (1 or 2 bit flips;
// larger even patterns may alias, as in real hardware).
func (c *SECDED) Detect(cw []byte) bool {
	synd, overall := c.syndrome(cw)
	return synd != 0 || overall != 0
}

// Decode corrects a single-bit error in place and returns the number of
// corrected bits (0 or 1). A detected double error returns
// ErrUncorrectable.
func (c *SECDED) Decode(cw []byte) (int, error) {
	synd, overall := c.syndrome(cw)
	switch {
	case synd == 0 && overall == 0:
		return 0, nil
	case overall == 1:
		// Single-bit error. If synd == 0 the overall parity bit itself
		// flipped; otherwise synd names the position.
		if synd == 0 {
			flipBit(cw, c.totalBits-1)
		} else {
			if synd > c.totalBits-1 {
				return 0, ErrUncorrectable // syndrome outside the word
			}
			flipBit(cw, synd-1)
		}
		return 1, nil
	default:
		// synd != 0 with even overall parity: double error.
		return 0, ErrUncorrectable
	}
}

// Extract copies the payload bits out of a codeword into a fresh buffer.
func (c *SECDED) Extract(cw []byte) []byte {
	out := make([]byte, (c.dataBits+7)/8)
	for i := 0; i < c.dataBits; i++ {
		if getBit(cw, c.dataPos[i]-1) == 1 {
			setBit(out, i)
		}
	}
	return out
}

func getBit(buf []byte, i int) byte { return (buf[i>>3] >> uint(i&7)) & 1 }
func setBit(buf []byte, i int)      { buf[i>>3] |= 1 << uint(i&7) }
func flipBit(buf []byte, i int)     { buf[i>>3] ^= 1 << uint(i&7) }
