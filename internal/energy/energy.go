// Package energy is the analytic energy model for scrub accounting. The
// paper's figure of merit is *scrub energy*: array reads, error
// detection/decode work, and — dominant in PCM — array write-backs.
// Constants are configurable inputs; results are always reported relative
// to the same constant set, so scheme comparisons are constant-independent
// to first order.
package energy

import "fmt"

// Params holds per-operation energy costs in picojoules. Defaults follow
// the published PCM prototype numbers: reads are cheap, writes are two
// orders of magnitude more expensive (RESET/SET pulses), BCH decode grows
// with correction capability, and a CRC check is near-free combinational
// logic.
type Params struct {
	// ArrayReadPJPerBit is the cost of sensing one bit from the array.
	ArrayReadPJPerBit float64
	// ArrayWritePJPerBit is the cost of programming one bit (averaged over
	// SET/RESET and iterative program-and-verify).
	ArrayWritePJPerBit float64
	// SECDEDDecodePJ is the cost of one SECDED syndrome+correct on a word.
	SECDEDDecodePJ float64
	// BCHDecodePJPerT is the BCH decode cost per unit of correction
	// capability (syndromes + Berlekamp-Massey + Chien scale with t).
	BCHDecodePJPerT float64
	// CRCCheckPJ is the cost of a lightweight CRC-16 recompute-and-compare.
	CRCCheckPJ float64
	// BufferPJPerBit covers peripheral/IO cost per transferred bit.
	BufferPJPerBit float64
}

// DefaultParams returns the baseline energy constants (pJ).
func DefaultParams() Params {
	return Params{
		ArrayReadPJPerBit:  2.0,
		ArrayWritePJPerBit: 180.0,
		SECDEDDecodePJ:     6.0,
		BCHDecodePJPerT:    25.0,
		CRCCheckPJ:         4.0,
		BufferPJPerBit:     0.5,
	}
}

// Validate checks that all costs are non-negative and that write cost is
// positive (the model divides by it when reporting write-normalised
// metrics).
func (p *Params) Validate() error {
	costs := []struct {
		name string
		v    float64
	}{
		{"ArrayReadPJPerBit", p.ArrayReadPJPerBit},
		{"ArrayWritePJPerBit", p.ArrayWritePJPerBit},
		{"SECDEDDecodePJ", p.SECDEDDecodePJ},
		{"BCHDecodePJPerT", p.BCHDecodePJPerT},
		{"CRCCheckPJ", p.CRCCheckPJ},
		{"BufferPJPerBit", p.BufferPJPerBit},
	}
	for _, c := range costs {
		if c.v < 0 {
			return fmt.Errorf("energy: %s must be non-negative", c.name)
		}
	}
	if p.ArrayWritePJPerBit == 0 {
		return fmt.Errorf("energy: ArrayWritePJPerBit must be positive")
	}
	return nil
}

// Ledger accumulates energy by category. The zero value is ready to use.
type Ledger struct {
	ReadPJ   float64
	DecodePJ float64
	DetectPJ float64
	WritePJ  float64
}

// Accountant prices operations from a Params table; callers add the
// costs to a Ledger.
type Accountant struct {
	p Params
}

// NewAccountant builds an accountant; params must validate.
func NewAccountant(p Params) (*Accountant, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Accountant{p: p}, nil
}

// MustAccountant is NewAccountant that panics on error.
func MustAccountant(p Params) *Accountant {
	a, err := NewAccountant(p)
	if err != nil {
		panic(err)
	}
	return a
}

// Params returns a copy of the accountant's cost table.
func (a *Accountant) Params() Params { return a.p }

// The cost methods price one operation: the amount its ledger category
// grows by. Callers that repeat an operation resolve its cost once.

// ReadCost is an array read of codewordBits (Ledger.ReadPJ).
func (a *Accountant) ReadCost(codewordBits int) float64 {
	return float64(codewordBits) * (a.p.ArrayReadPJPerBit + a.p.BufferPJPerBit)
}

// WriteCost is an array write of codewordBits (Ledger.WritePJ).
func (a *Accountant) WriteCost(codewordBits int) float64 {
	return float64(codewordBits) * (a.p.ArrayWritePJPerBit + a.p.BufferPJPerBit)
}

// SECDEDDecodeCost is a SECDED decode of the given number of words
// (Ledger.DecodePJ).
func (a *Accountant) SECDEDDecodeCost(words int) float64 {
	return float64(words) * a.p.SECDEDDecodePJ
}

// BCHDecodeCost is a full BCH decode of capability t (Ledger.DecodePJ).
func (a *Accountant) BCHDecodeCost(t int) float64 {
	return float64(t) * a.p.BCHDecodePJPerT
}

// CRCCost is a lightweight detection pass (Ledger.DetectPJ).
func (a *Accountant) CRCCost() float64 { return a.p.CRCCheckPJ }

// Total returns the ledger's total energy in pJ.
func (l *Ledger) Total() float64 {
	return l.ReadPJ + l.DecodePJ + l.DetectPJ + l.WritePJ
}

// Add folds another ledger into l.
func (l *Ledger) Add(o Ledger) {
	l.ReadPJ += o.ReadPJ
	l.DecodePJ += o.DecodePJ
	l.DetectPJ += o.DetectPJ
	l.WritePJ += o.WritePJ
}

// Scale multiplies every category by f (for extrapolating a sampled region
// to full capacity).
func (l *Ledger) Scale(f float64) {
	l.ReadPJ *= f
	l.DecodePJ *= f
	l.DetectPJ *= f
	l.WritePJ *= f
}
