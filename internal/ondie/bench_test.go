package ondie

import (
	"fmt"
	"testing"
)

// BenchmarkOnDieDecode measures the per-word on-die decode at full
// correction load, for the SECDED strength (t=1) and a representative
// BCH strength (t=4). `make bench` records both in BENCH_engine.json
// alongside the line-codec benchmarks.
func BenchmarkOnDieDecode(b *testing.B) {
	for _, t := range []int{1, 4} {
		codec := MustCodec(t)
		word := make([]byte, WordBytes)
		for i := range word {
			word[i] = byte(3*i + 7)
		}
		enc, err := codec.Encode(word)
		if err != nil {
			b.Fatal(err)
		}
		// Spread t flips across the codeword support (payload + check
		// bits) — the heaviest pattern the codec must still correct.
		bits := WordBits + codec.CheckBits()
		stride := bits / t
		dirty := append([]byte(nil), enc...)
		for j := 0; j < t; j++ {
			p := j*stride + stride/2
			dirty[p>>3] ^= 1 << (p & 7)
		}
		buf := make([]byte, len(dirty))

		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			b.SetBytes(WordBytes)
			for i := 0; i < b.N; i++ {
				copy(buf, dirty)
				if _, err := codec.Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
