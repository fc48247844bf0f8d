package ecc

import (
	"fmt"
	"testing"
)

// The per-codec microbenchmarks below measure the decode path of each
// line codec at full correction load (weight-t error patterns). `make
// bench` records them in BENCH_engine.json next to the engine benchmarks.
//
// Each iteration re-corrupts the codeword by copying from a pre-flipped
// template, so the copy cost is part of every figure.

// benchPayload is a deterministic 64-byte line payload.
func benchPayload() []byte {
	data := make([]byte, LineBytes)
	for i := range data {
		data[i] = byte(2*i + 1)
	}
	return data
}

// benchCorrupt returns a copy of cw with nflips bit flips spread evenly
// over the first bits positions (stride placement: flip j lands at
// j*stride + stride/2). For the 8x(72,64) SECDED line, 8 flips over 576
// bits puts exactly one flip in each 72-bit word — the codec's full load.
func benchCorrupt(cw []byte, nflips, bits int) []byte {
	out := append([]byte(nil), cw...)
	if nflips <= 0 {
		return out
	}
	stride := bits / nflips
	for j := 0; j < nflips; j++ {
		p := j*stride + stride/2
		out[p>>3] ^= 1 << (p & 7)
	}
	return out
}

// BenchmarkBCHDecode measures a full-load line decode (syndromes,
// Berlekamp–Massey, Chien search, t corrections) at the paper's line
// strengths.
func BenchmarkBCHDecode(b *testing.B) {
	for _, t := range []int{2, 4, 8} {
		line := MustBCHLine(t)
		enc, err := line.EncodeLine(benchPayload())
		if err != nil {
			b.Fatal(err)
		}
		support := line.DataBits() + line.CheckBits()
		dirty := benchCorrupt(enc, t, support)
		buf := make([]byte, len(dirty))

		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			b.SetBytes(LineBytes)
			for i := 0; i < b.N; i++ {
				copy(buf, dirty)
				if _, err := line.DecodeLine(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSECDEDLineDecode measures the 8x(72,64) line decode with one
// correctable flip in every word.
func BenchmarkSECDEDLineDecode(b *testing.B) {
	line := NewSECDEDLine()
	enc, err := line.EncodeLine(benchPayload())
	if err != nil {
		b.Fatal(err)
	}
	dirty := benchCorrupt(enc, line.Words(), len(enc)*8)
	buf := make([]byte, len(dirty))

	b.Run("line", func(b *testing.B) {
		b.SetBytes(LineBytes)
		for i := 0; i < b.N; i++ {
			copy(buf, dirty)
			if _, err := line.DecodeLine(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
