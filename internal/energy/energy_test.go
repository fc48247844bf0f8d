package energy

import (
	"math"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ArrayWritePJPerBit <= p.ArrayReadPJPerBit {
		t.Error("PCM writes must cost more than reads")
	}
}

func TestValidateRejectsNegativeAndZeroWrite(t *testing.T) {
	p := DefaultParams()
	p.CRCCheckPJ = -1
	if err := p.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
	p = DefaultParams()
	p.ArrayWritePJPerBit = 0
	if err := p.Validate(); err == nil {
		t.Error("zero write cost accepted")
	}
}

func TestAccountantCharges(t *testing.T) {
	p := DefaultParams()
	a := MustAccountant(p)
	cases := []struct {
		name      string
		got, want float64
	}{
		{"read", a.ReadCost(576), 576 * (p.ArrayReadPJPerBit + p.BufferPJPerBit)},
		{"write", a.WriteCost(576), 576 * (p.ArrayWritePJPerBit + p.BufferPJPerBit)},
		{"secded", a.SECDEDDecodeCost(8), 8 * p.SECDEDDecodePJ},
		{"bch", a.BCHDecodeCost(4), 4 * p.BCHDecodePJPerT},
		{"crc", a.CRCCost(), p.CRCCheckPJ},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s cost %g, want %g", c.name, c.got, c.want)
		}
	}
	l := Ledger{ReadPJ: 1, DecodePJ: 2, DetectPJ: 4, WritePJ: 8}
	if l.Total() != 15 {
		t.Errorf("total %g, want 15", l.Total())
	}
}

func TestLedgerAddAndScale(t *testing.T) {
	a := MustAccountant(DefaultParams())
	l1 := Ledger{ReadPJ: a.ReadCost(100)}
	l2 := Ledger{WritePJ: a.WriteCost(100)}
	l1.Add(l2)
	if l1.WritePJ != l2.WritePJ {
		t.Error("Add did not fold write energy")
	}
	before := l1.Total()
	l1.Scale(2)
	if math.Abs(l1.Total()-2*before) > 1e-9 {
		t.Errorf("scale: %g, want %g", l1.Total(), 2*before)
	}
}

func TestWriteDominatesScrubWriteback(t *testing.T) {
	// Sanity: with default constants, one line write-back costs more than
	// the read + full BCH-8 decode that preceded it — the physical fact
	// that makes "avoid needless write-backs" the paper's big lever.
	a := MustAccountant(DefaultParams())
	read := a.ReadCost(592) + a.BCHDecodeCost(8)
	write := a.WriteCost(592)
	if write <= read {
		t.Errorf("write-back (%g pJ) should dominate read+decode (%g pJ)", write, read)
	}
}

func TestNewAccountantRejectsInvalid(t *testing.T) {
	p := DefaultParams()
	p.ArrayReadPJPerBit = -5
	if _, err := NewAccountant(p); err == nil {
		t.Error("invalid params accepted")
	}
}
