package ondie

import (
	"fmt"

	"repro/internal/bch"
	"repro/internal/ecc"
)

// WordBits is the on-die codeword payload: on-die ECC protects one
// 64-bit word per codec invocation, eight of which tile a memory line.
const WordBits = 64

// WordBytes is WordBits in bytes.
const WordBytes = WordBits / 8

// Codec is the per-word on-die code: SECDED for t=1, a shortened binary
// BCH code for t>=2. It exists both to size the check-bit budget the
// Layer reports and as the concrete encoder/decoder the fuzz harness
// exercises, so the simulated strengths correspond to codes that really
// close over a 64-bit payload. Immutable after construction and safe
// for concurrent use.
type Codec struct {
	t   int
	sec *ecc.SECDED
	bc  *bch.Code
}

// NewCodec builds the on-die word codec for correction strength t >= 1.
func NewCodec(t int) (*Codec, error) {
	switch {
	case t < 1:
		return nil, fmt.Errorf("ondie: codec strength must be >= 1, got %d", t)
	case t == 1:
		return &Codec{t: 1, sec: ecc.MustSECDED(WordBits)}, nil
	default:
		c, err := bch.ForPayload(WordBits, t)
		if err != nil {
			return nil, fmt.Errorf("ondie: no word code at t=%d: %w", t, err)
		}
		return &Codec{t: t, bc: c}, nil
	}
}

// MustCodec is NewCodec that panics on error; for tests and examples.
func MustCodec(t int) *Codec {
	c, err := NewCodec(t)
	if err != nil {
		panic(err)
	}
	return c
}

// T returns the codec's designed correction strength in bits.
func (c *Codec) T() int { return c.t }

// CheckBits returns the per-word check-bit overhead.
func (c *Codec) CheckBits() int {
	if c.sec != nil {
		return c.sec.CheckBits()
	}
	return c.bc.ParityBits()
}

// CodewordBytes returns the encoded word size in bytes.
func (c *Codec) CodewordBytes() int {
	if c.sec != nil {
		return c.sec.CodewordBytes()
	}
	return c.bc.CodewordBytes(WordBits)
}

// Encode encodes the first WordBytes bytes of word into a fresh codeword.
func (c *Codec) Encode(word []byte) ([]byte, error) {
	if c.sec != nil {
		return c.sec.Encode(word)
	}
	return c.bc.Encode(word, WordBits)
}

// Decode corrects up to T bit errors in cw in place and returns the
// number of corrected bits, or an uncorrectable-pattern error.
func (c *Codec) Decode(cw []byte) (int, error) {
	if c.sec != nil {
		return c.sec.Decode(cw)
	}
	return c.bc.Decode(cw, WordBits)
}

// Detect reports whether cw carries a detectable error (syndrome check
// only, no correction).
func (c *Codec) Detect(cw []byte) bool {
	if c.sec != nil {
		return c.sec.Detect(cw)
	}
	return c.bc.Detect(cw, WordBits)
}

// Extract copies the payload word out of a codeword into a fresh buffer.
func (c *Codec) Extract(cw []byte) []byte {
	if c.sec != nil {
		return c.sec.Extract(cw)
	}
	return c.bc.ExtractMessage(cw, WordBits)
}
