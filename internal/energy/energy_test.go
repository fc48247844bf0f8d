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
		{"read", a.Price(Ops{ReadBits: 576}).ReadPJ, 576 * (p.ArrayReadPJPerBit + p.BufferPJPerBit)},
		{"write", a.Price(Ops{WriteBits: 576}).WritePJ, 576 * (p.ArrayWritePJPerBit + p.BufferPJPerBit)},
		{"secded", a.Price(Ops{SECDEDWords: 8}).DecodePJ, 8 * p.SECDEDDecodePJ},
		{"bch", a.Price(Ops{BCHUnits: 4}).DecodePJ, 4 * p.BCHDecodePJPerT},
		{"crc", a.Price(Ops{CRCPasses: 1}).DetectPJ, p.CRCCheckPJ},
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

// TestPriceIsCountsTimesUnitPrices pins pricing on a cost table whose
// entries are not dyadic: each category is its count times its unit
// price, one product per count, so the energy does not depend on how
// the counts were accumulated.
func TestPriceIsCountsTimesUnitPrices(t *testing.T) {
	p := Params{
		ArrayReadPJPerBit: 2.1, ArrayWritePJPerBit: 173.3, SECDEDDecodePJ: 6.7,
		BCHDecodePJPerT: 25.3, CRCCheckPJ: 4.1, BufferPJPerBit: 0.3,
	}
	o := Ops{ReadBits: 123_457, WriteBits: 98_765, SECDEDWords: 4_321, BCHUnits: 777, CRCPasses: 5_555}
	got := MustAccountant(p).Price(o)
	want := Ledger{
		ReadPJ:   float64(o.ReadBits) * (p.ArrayReadPJPerBit + p.BufferPJPerBit),
		DecodePJ: float64(o.SECDEDWords)*p.SECDEDDecodePJ + float64(o.BCHUnits)*p.BCHDecodePJPerT,
		DetectPJ: float64(o.CRCPasses) * p.CRCCheckPJ,
		WritePJ:  float64(o.WriteBits) * (p.ArrayWritePJPerBit + p.BufferPJPerBit),
	}
	if got != want {
		t.Errorf("Price = %+v, want %+v", got, want)
	}
	if z := MustAccountant(p).Price(Ops{}); z != (Ledger{}) {
		t.Errorf("zero counts priced %+v", z)
	}
}

func TestLedgerAddAndScale(t *testing.T) {
	a := MustAccountant(DefaultParams())
	l1 := a.Price(Ops{ReadBits: 100})
	l2 := a.Price(Ops{WriteBits: 100})
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
	check := a.Price(Ops{ReadBits: 592, BCHUnits: 8})
	read := check.Total()
	writeBack := a.Price(Ops{WriteBits: 592})
	write := writeBack.Total()
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
