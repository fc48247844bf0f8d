package engine

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/scrub"
)

// oddEnergy is a cost table whose entries are not dyadic fractions, so
// a sum of per-operation charges would differ from a count times a unit
// price in its last bits.
func oddEnergy() energy.Params {
	return energy.Params{
		ArrayReadPJPerBit:  2.1,
		ArrayWritePJPerBit: 173.3,
		SECDEDDecodePJ:     6.7,
		BCHDecodePJPerT:    25.3,
		CRCCheckPJ:         4.1,
		BufferPJPerBit:     0.3,
	}
}

// TestEnergyIsCountsTimesUnitPrices checks the operation ledger under a
// non-dyadic cost table: each energy category of a run is one product,
// the category's operation count times its unit price, whatever number
// of charges made up the count. The counts are rebuilt from the result's
// visit, probe, decode and write counters.
func TestEnergyIsCountsTimesUnitPrices(t *testing.T) {
	p := oddEnergy()
	readPJ := p.ArrayReadPJPerBit + p.BufferPJPerBit
	writePJ := p.ArrayWritePJPerBit + p.BufferPJPerBit
	for _, pol := range []scrub.Policy{scrub.Basic(), scrub.LightBasic()} {
		spec := testSpec()
		spec.Energy = p
		spec.Policy = pol
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, check := int64(spec.Scheme.DataBits()), int64(spec.Scheme.CheckBits())
		written := data + check
		readBits := res.ScrubVisits * (data + check)
		if pol.Detection() == scrub.LightDetect {
			written += crcBits
			readBits = res.ScrubProbes*(data+crcBits) + res.ScrubDecodes*check
		}
		want := energy.Ledger{
			ReadPJ:   float64(readBits) * readPJ,
			DecodePJ: float64(res.ScrubDecodes*int64(spec.Scheme.T())) * p.BCHDecodePJPerT,
			DetectPJ: float64(res.ScrubProbes) * p.CRCCheckPJ,
			WritePJ:  float64(res.ScrubWrites()*written) * writePJ,
		}
		if res.ScrubEnergy != want {
			t.Errorf("%s: scrub energy %+v, want %+v", pol.Name(), res.ScrubEnergy, want)
		}
		demand := energy.Ledger{WritePJ: float64(res.DemandWrites*written) * writePJ}
		if res.DemandEnergy != demand {
			t.Errorf("%s: demand energy %+v, want %+v", pol.Name(), res.DemandEnergy, demand)
		}
		if res.ScrubWrites() == 0 || res.DemandWrites == 0 {
			t.Errorf("%s: %d scrub and %d demand writes; the check needs both", pol.Name(), res.ScrubWrites(), res.DemandWrites)
		}
	}
}

// TestDeviceSwapPricesWritesAtTheirWidth swaps a device's policy Basic →
// LightBasic → Basic. A codeword written under light detection stores a
// CRC, so it is crcBits wider: every write, scrub and demand alike, must
// be priced at the width in force when it happened, and a swap must not
// re-price the writes before it.
func TestDeviceSwapPricesWritesAtTheirWidth(t *testing.T) {
	spec := deviceSpec(t, 11)
	spec.Energy = oddEnergy()
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(spec.Scheme.DataBits() + spec.Scheme.CheckBits())
	var scrubBits, demandBits int64
	prev := d.Totals()
	for _, pol := range []scrub.Policy{scrub.Basic(), scrub.LightBasic(), scrub.Basic()} {
		if err := d.SetPolicy(pol); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 8; c++ {
			if _, err := d.PatrolChunk(64, 4000, nil); err != nil {
				t.Fatal(err)
			}
		}
		width := base
		if pol.Detection() == scrub.LightDetect {
			width += crcBits
		}
		now := d.Totals()
		writes := now.ScrubWrites() - prev.ScrubWrites()
		if writes == 0 {
			t.Fatalf("%s phase wrote nothing; the check needs scrub writes in every phase", pol.Name())
		}
		scrubBits += writes * width
		demandBits += (now.DemandWrites - prev.DemandWrites) * width
		prev = now
	}
	writePJ := spec.Energy.ArrayWritePJPerBit + spec.Energy.BufferPJPerBit
	if got, want := prev.ScrubEnergy.WritePJ, float64(scrubBits)*writePJ; got != want {
		t.Errorf("scrub write energy %v, want %v", got, want)
	}
	if got, want := prev.DemandEnergy.WritePJ, float64(demandBits)*writePJ; got != want {
		t.Errorf("demand write energy %v, want %v", got, want)
	}
}
