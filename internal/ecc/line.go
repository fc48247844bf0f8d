package ecc

import (
	"fmt"

	"repro/internal/bch"
	"repro/internal/stats"
)

// LineBytes is the memory line (cache block) size the study uses.
const LineBytes = 64

// LineBits is the payload width of one line in bits.
const LineBits = LineBytes * 8

// LineCodec is a Scheme that can also actually encode/decode whole lines,
// so the ECC behaviour the reliability model assumes is backed by a real
// codec exercised in tests.
type LineCodec interface {
	Scheme
	// EncodeLine encodes a LineBytes payload into a fresh codeword buffer.
	EncodeLine(data []byte) ([]byte, error)
	// DecodeLine corrects the codeword in place, returning corrected bits,
	// or ErrUncorrectable.
	DecodeLine(cw []byte) (int, error)
	// DetectLine reports whether the codeword contains a detectable error.
	DetectLine(cw []byte) bool
	// LineCodewordBytes is the encoded size of one line.
	LineCodewordBytes() int
}

// SECDEDLine protects a 64-byte line with an independent SECDED(72,64)
// code on each of its eight 64-bit words — the DRAM baseline organisation.
type SECDEDLine struct {
	*WordSECDEDScheme
	word *SECDED
}

// NewSECDEDLine builds the 8×(72,64) line codec.
func NewSECDEDLine() *SECDEDLine {
	return &SECDEDLine{
		WordSECDEDScheme: NewWordSECDEDScheme(LineBytes/8, 64),
		word:             MustSECDED(64),
	}
}

// LineCodewordBytes implements LineCodec.
func (l *SECDEDLine) LineCodewordBytes() int {
	return l.Words() * l.word.CodewordBytes()
}

// EncodeLine implements LineCodec.
func (l *SECDEDLine) EncodeLine(data []byte) ([]byte, error) {
	if len(data) != LineBytes {
		return nil, fmt.Errorf("ecc: line payload must be %d bytes, got %d", LineBytes, len(data))
	}
	wb := l.word.CodewordBytes()
	out := make([]byte, 0, l.Words()*wb)
	for w := 0; w < l.Words(); w++ {
		cw, err := l.word.Encode(data[w*8 : w*8+8])
		if err != nil {
			return nil, err
		}
		out = append(out, cw...)
	}
	return out, nil
}

// DecodeLine implements LineCodec: each word is decoded independently; the
// line is uncorrectable if any word is.
func (l *SECDEDLine) DecodeLine(cw []byte) (int, error) {
	wb := l.word.CodewordBytes()
	if len(cw) != l.Words()*wb {
		return 0, fmt.Errorf("ecc: line codeword must be %d bytes, got %d", l.Words()*wb, len(cw))
	}
	total := 0
	for w := 0; w < l.Words(); w++ {
		n, err := l.word.Decode(cw[w*wb : (w+1)*wb])
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// DetectLine implements LineCodec.
func (l *SECDEDLine) DetectLine(cw []byte) bool {
	wb := l.word.CodewordBytes()
	for w := 0; w < l.Words(); w++ {
		if l.word.Detect(cw[w*wb : (w+1)*wb]) {
			return true
		}
	}
	return false
}

// ExtractLine copies the 64-byte payload back out of a line codeword.
func (l *SECDEDLine) ExtractLine(cw []byte) []byte {
	wb := l.word.CodewordBytes()
	out := make([]byte, 0, LineBytes)
	for w := 0; w < l.Words(); w++ {
		out = append(out, l.word.Extract(cw[w*wb:(w+1)*wb])...)
	}
	return out
}

// BCHLine protects a whole 64-byte line with one BCH-t code over GF(2^10).
type BCHLine struct {
	code *bch.Code
	name string
}

// NewBCHLine builds a line codec correcting up to t errors anywhere in the
// line (the paper's "strong ECC" options are t = 2, 4, 8).
func NewBCHLine(t int) (*BCHLine, error) {
	code, err := bch.ForPayload(LineBits, t)
	if err != nil {
		return nil, err
	}
	return &BCHLine{code: code, name: fmt.Sprintf("BCH-%d", t)}, nil
}

// MustBCHLine is NewBCHLine that panics on error.
func MustBCHLine(t int) *BCHLine {
	l, err := NewBCHLine(t)
	if err != nil {
		panic(err)
	}
	return l
}

// Name implements Scheme.
func (l *BCHLine) Name() string { return l.name }

// DataBits implements Scheme.
func (l *BCHLine) DataBits() int { return LineBits }

// CheckBits implements Scheme.
func (l *BCHLine) CheckBits() int { return l.code.ParityBits() }

// T implements Scheme.
func (l *BCHLine) T() int { return l.code.T() }

// Correctable implements Scheme (placement-independent).
func (l *BCHLine) Correctable(_ *stats.RNG, nerr int) bool {
	return nerr <= l.code.T()
}

// LineCodewordBytes implements LineCodec.
func (l *BCHLine) LineCodewordBytes() int { return l.code.CodewordBytes(LineBits) }

// EncodeLine implements LineCodec.
func (l *BCHLine) EncodeLine(data []byte) ([]byte, error) {
	if len(data) != LineBytes {
		return nil, fmt.Errorf("ecc: line payload must be %d bytes, got %d", LineBytes, len(data))
	}
	return l.code.Encode(data, LineBits)
}

// DecodeLine implements LineCodec.
func (l *BCHLine) DecodeLine(cw []byte) (int, error) {
	n, err := l.code.Decode(cw, LineBits)
	if err != nil {
		return n, ErrUncorrectable
	}
	return n, nil
}

// DetectLine implements LineCodec.
func (l *BCHLine) DetectLine(cw []byte) bool { return l.code.Detect(cw, LineBits) }

// ExtractLine copies the 64-byte payload back out of a line codeword.
func (l *BCHLine) ExtractLine(cw []byte) []byte {
	return l.code.ExtractMessage(cw, LineBits)
}

// ByName constructs the named scheme: "SECDED", "BCH-<t>" or "RS-<t>".
func ByName(name string) (Scheme, error) {
	switch name {
	case "SECDED":
		return NewSECDEDLine(), nil
	}
	var t int
	if n, err := fmt.Sscanf(name, "BCH-%d", &t); err == nil && n == 1 {
		return NewBCHLine(t)
	}
	if n, err := fmt.Sscanf(name, "RS-%d", &t); err == nil && n == 1 {
		return NewRSLine(t)
	}
	return nil, fmt.Errorf("ecc: unknown scheme %q", name)
}
