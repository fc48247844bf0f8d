package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/ecp"
	"repro/internal/engine"
	"repro/internal/pcm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Benchmarks for the extension experiments F13–F20 (see DESIGN.md). Same
// contract as the F1–F12 benchmarks in bench_test.go: each runs the
// experiment's code path at benchmark scale and reports its key figures.

// BenchmarkF13Leveling regenerates the wear-hot-spot comparison.
func BenchmarkF13Leveling(b *testing.B) {
	sys := benchSystem()
	var hotBare, hotLev float64
	m := ladder(b, sys)["combined"]
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		w := benchWorkload("kv-store", b)
		bare, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		lev, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{GapMovePeriod: 100}))
		if err != nil {
			b.Fatal(err)
		}
		hotBare = float64(bare.MaxLineWrites)
		hotLev = float64(lev.MaxLineWrites)
	}
	b.ReportMetric(hotBare, "max-slot-writes-bare")
	b.ReportMetric(hotLev, "max-slot-writes-leveled")
}

// BenchmarkF14CellErrors regenerates the RS-vs-BCH survival comparison at
// the decisive point: four 2-bit cell errors.
func BenchmarkF14CellErrors(b *testing.B) {
	r := stats.NewRNG(14)
	bch := ecc.MustBCHLine(4)
	rs := ecc.MustRSLine(4)
	survive := func(codec ecc.LineCodec) float64 {
		ok, trials := 0, 50
		data := make([]byte, ecc.LineBytes)
		for trial := 0; trial < trials; trial++ {
			for j := range data {
				data[j] = byte(r.Uint64())
			}
			cw, err := codec.EncodeLine(data)
			if err != nil {
				b.Fatal(err)
			}
			validCells := (codec.DataBits() + codec.CheckBits()) / 2
			seen := map[int]bool{}
			for len(seen) < 4 {
				c := r.Intn(validCells)
				if seen[c] {
					continue
				}
				seen[c] = true
				cw[(2*c)/8] ^= 0b11 << uint((2*c)%8)
			}
			if _, err := codec.DecodeLine(cw); err == nil {
				ok++
			}
		}
		return float64(ok) / float64(trials)
	}
	var bchS, rsS float64
	for i := 0; i < b.N; i++ {
		bchS = survive(bch)
		rsS = survive(rs)
	}
	b.ReportMetric(100*bchS, "BCH4-survival-%")
	b.ReportMetric(100*rsS, "RS4-survival-%")
}

// BenchmarkF15Replication regenerates the seed-stability statistics at a
// reduced replica count.
func BenchmarkF15Replication(b *testing.B) {
	sys := benchSystem()
	var stderrPct float64
	m := ladder(b, sys)["combined"]
	for i := 0; i < b.N; i++ {
		rep, err := core.RunReplicatedContext(context.Background(), sys, m, benchWorkload("idle-archive", b), 3)
		if err != nil {
			b.Fatal(err)
		}
		if mean := rep.ScrubWrites.Mean(); mean > 0 {
			stderrPct = 100 * rep.ScrubWrites.StdErr() / mean
		}
	}
	b.ReportMetric(stderrPct, "scrub-write-stderr-%")
}

// BenchmarkF16Precision regenerates the precision sweep's analytic side:
// safe interval per program-and-verify iteration count.
func BenchmarkF16Precision(b *testing.B) {
	pp := pcm.DefaultProgramParams()
	base := pcm.DefaultParams()
	var gain float64
	for i := 0; i < b.N; i++ {
		params := base
		params.SigmaProg = pp.SigmaAfter(1)
		coarse := pcm.MustModel(params).ScrubIntervalFor(pcm.UniformMix(), pcm.CellsPerLine, 6, 1e-4)
		params.SigmaProg = pp.SigmaAfter(4)
		fine := pcm.MustModel(params).ScrubIntervalFor(pcm.UniformMix(), pcm.CellsPerLine, 6, 1e-4)
		gain = fine / coarse
	}
	b.ReportMetric(gain, "interval-gain-4-iter")
}

// BenchmarkF17SLC regenerates the form-switch sweep at its endpoints.
func BenchmarkF17SLC(b *testing.B) {
	sys := benchSystem()
	var writesMLC, writesSLC float64
	m := ladder(b, sys)["threshold"]
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		w := benchWorkload("idle-archive", b)
		mlc, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		slc, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{SLCFraction: 1}))
		if err != nil {
			b.Fatal(err)
		}
		writesMLC = float64(mlc.ScrubWrites())
		writesSLC = float64(slc.ScrubWrites())
	}
	b.ReportMetric(writesMLC, "scrub-writes-mlc")
	b.ReportMetric(writesSLC, "scrub-writes-all-slc")
}

// BenchmarkF18DetectionRace regenerates the read-race attribution.
func BenchmarkF18DetectionRace(b *testing.B) {
	sys := benchSystem()
	var readFirstPct float64
	m := ladder(b, sys)["basic"]
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		res, err := engine.Run(engine.ResolveSpec(sys, m, benchWorkload("web-serve", b), engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		if res.UEs > 0 {
			readFirstPct = 100 * float64(res.UEsReadFirst) / float64(res.UEs)
		}
	}
	b.ReportMetric(readFirstPct, "read-first-%")
}

// BenchmarkF19Density regenerates the density scaling law.
func BenchmarkF19Density(b *testing.B) {
	var mlcInterval, tlcInterval float64
	for i := 0; i < b.N; i++ {
		mlc, err := pcm.NewMultiLevel(4)
		if err != nil {
			b.Fatal(err)
		}
		tlc, err := pcm.NewMultiLevel(8)
		if err != nil {
			b.Fatal(err)
		}
		mlcInterval = mlc.SafeInterval(256, 1)
		tlcInterval = tlc.SafeInterval(171, 1)
	}
	b.ReportMetric(mlcInterval, "mlc-safe-interval-s")
	b.ReportMetric(tlcInterval, "tlc-safe-interval-s")
}

// BenchmarkF20ECP regenerates the aged-device pointer sweep at its
// endpoints.
func BenchmarkF20ECP(b *testing.B) {
	sys := benchSystem()
	sys.InitialLineWrites = 30_000_000
	var uesBare, uesECP float64
	m := ladder(b, sys)["threshold"]
	for i := 0; i < b.N; i++ {
		sys.Seed = uint64(i + 1)
		w := benchWorkload("idle-archive", b)
		bare, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		withECP, err := engine.Run(engine.ResolveSpec(sys, m, w, engine.Options{ECPEntries: 6}))
		if err != nil {
			b.Fatal(err)
		}
		uesBare = float64(bare.UEs)
		uesECP = float64(withECP.UEs)
	}
	b.ReportMetric(uesBare, "UEs-no-ECP")
	b.ReportMetric(uesECP, "UEs-ECP6")
	// Storage context for the metric pair.
	p := ecp.Params{Entries: 6, CellsPerLine: pcm.CellsPerLine, BitsPerCell: pcm.BitsPerCell}
	b.ReportMetric(float64(p.OverheadBits()), "ECP6-bits-per-line")
}

// BenchmarkTraceReplay measures the record/replay path end to end.
func BenchmarkTraceReplay(b *testing.B) {
	gen, err := trace.NewGenerator(benchWorkload("kv-store", b), 2048, stats.NewRNG(20))
	if err != nil {
		b.Fatal(err)
	}
	events, err := trace.Record(gen, stats.NewRNG(21), 20000, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := trace.NewReplayer(events, 2048)
		if err != nil {
			b.Fatal(err)
		}
		var buf []int
		total := 0
		for t := 0.0; t < 20000; t += 500 {
			buf = rp.WritesInEpoch(nil, t, 500, buf)
			total += len(buf)
		}
		if total == 0 {
			b.Fatal("replay empty")
		}
	}
}
