package ecc

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzRNG is a tiny splitmix64 so flip positions derive deterministically
// from the fuzz input.
type fuzzRNG uint64

func (r *fuzzRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fuzzFlip(buf []byte, bit int) { buf[bit>>3] ^= 1 << uint(bit&7) }

func fuzzDistinct(r *fuzzRNG, n, total int) []int {
	seen := make(map[int]bool, n)
	pos := make([]int, 0, n)
	for len(pos) < n {
		p := int(r.next() % uint64(total))
		if !seen[p] {
			seen[p] = true
			pos = append(pos, p)
		}
	}
	return pos
}

// fillLine expands arbitrary fuzz bytes into a full 64-byte payload.
func fillLine(data []byte) []byte {
	line := make([]byte, LineBytes)
	copy(line, data)
	if len(data) > 0 {
		// Tile the tail so short inputs still produce varied payloads.
		for i := len(data); i < LineBytes; i++ {
			line[i] = data[i%len(data)] ^ byte(i)
		}
	}
	return line
}

// FuzzBCHLineRoundTrip exercises the whole-line BCH-4 codec the study's
// "strong ECC" configurations rely on: any ≤ t corruption of an encoded
// 64-byte line must decode back to the exact payload with an accurate
// corrected-bit count, and a > t pattern must never be passed off as a
// clean correction of the original line.
func FuzzBCHLineRoundTrip(f *testing.F) {
	codec := MustBCHLine(4)
	totalBits := codec.LineCodewordBytes() * 8
	// The last byte of the codeword may be partially used; flipping a pad
	// bit there would not be a code-visible error, so keep flips inside
	// the exact codeword span.
	usedBits := codec.DataBits() + codec.CheckBits()
	if usedBits < totalBits {
		totalBits = usedBits
	}

	f.Add([]byte{}, byte(0), uint64(3))
	f.Add([]byte{0x01}, byte(1), uint64(9))
	f.Add([]byte("line-fuzz-corpus"), byte(4), uint64(1234)) // at capability
	f.Add([]byte{0xee, 0x11}, byte(5), uint64(99))           // t+1
	f.Add([]byte{0x42}, byte(8), uint64(0xbeef))             // 2t
	f.Fuzz(func(t *testing.T, data []byte, nraw byte, posSeed uint64) {
		line := fillLine(data)
		cw, err := codec.EncodeLine(line)
		if err != nil {
			t.Fatalf("EncodeLine: %v", err)
		}
		orig := append([]byte(nil), cw...)
		if codec.DetectLine(cw) {
			t.Fatal("fresh line codeword reported dirty")
		}

		nflips := int(nraw) % (2*codec.T() + 1) // 0 .. 2t
		rng := fuzzRNG(posSeed)
		for _, p := range fuzzDistinct(&rng, nflips, totalBits) {
			fuzzFlip(cw, p)
		}

		if nflips >= 1 && !codec.DetectLine(cw) {
			t.Fatalf("%d flips (≤ 2t) escaped DetectLine", nflips)
		}

		corrected, err := codec.DecodeLine(cw)
		if nflips <= codec.T() {
			if err != nil {
				t.Fatalf("%d ≤ t flips uncorrectable: %v", nflips, err)
			}
			if corrected != nflips {
				t.Fatalf("corrected %d bits, injected %d", corrected, nflips)
			}
			if !bytes.Equal(cw, orig) {
				t.Fatal("decode did not restore the original codeword")
			}
			if !bytes.Equal(codec.ExtractLine(cw), line) {
				t.Fatal("decoded payload differs from original line")
			}
			return
		}
		if err == nil {
			if corrected > codec.T() {
				t.Fatalf("claimed to correct %d > t bits", corrected)
			}
			if bytes.Equal(cw, orig) {
				t.Fatalf("%d > t flips reported as clean correction of the original", nflips)
			}
		}
	})
}

// FuzzSECDEDLineRoundTrip covers the DRAM-baseline organisation: eight
// independent (72,64) words per line. Any single flip per word corrects
// cleanly; a double flip within one word must be detected and refused,
// never silently "fixed".
//
// The same input also drives one (72,64) word on its own, at the weight
// the top two bits of posSeed give (0..3: clean, corrected, refused, and
// the triple-flip aliasing regime), and an arbitrary word and line
// buffer drawn from posSeed. Wherever correction is not guaranteed,
// Decode must either refuse or leave a buffer Detect calls clean.
func FuzzSECDEDLineRoundTrip(f *testing.F) {
	codec := NewSECDEDLine()
	secded := MustSECDED(64)
	f.Add([]byte{}, uint64(17), false)
	f.Add([]byte("secded-corpus"), uint64(5), false)
	f.Add([]byte{0x80, 0x01}, uint64(33), true)
	f.Add([]byte{0xff}, uint64(1<<62|2), false)         // word weight 1
	f.Add([]byte("double-bit"), uint64(2<<62|3), true)  // word weight 2
	f.Add([]byte("triple-bit"), uint64(3<<62|4), false) // word weight 3
	f.Add([]byte{0xa5, 0x5a}, uint64(3<<62|0xbeef), true)
	f.Fuzz(func(t *testing.T, data []byte, posSeed uint64, double bool) {
		line := fillLine(data)
		fuzzSECDEDArbitrary(t, secded, codec, line[:8], posSeed)

		cw, err := codec.EncodeLine(line)
		if err != nil {
			t.Fatalf("EncodeLine: %v", err)
		}
		orig := append([]byte(nil), cw...)

		wordBytes := len(cw) / codec.Words()
		rng := fuzzRNG(posSeed)
		word := int(rng.next() % uint64(codec.Words()))
		wordBits := wordBytes * 8
		nflips := 1
		if double {
			nflips = 2
		}
		for _, p := range fuzzDistinct(&rng, nflips, wordBits) {
			fuzzFlip(cw[word*wordBytes:(word+1)*wordBytes], p)
		}

		if !codec.DetectLine(cw) {
			t.Fatalf("%d-bit corruption escaped DetectLine", nflips)
		}
		corrected, err := codec.DecodeLine(cw)
		if double {
			if err == nil {
				t.Fatal("double-bit word error decoded without complaint")
			}
			return
		}
		if err != nil {
			t.Fatalf("single-bit error uncorrectable: %v", err)
		}
		if corrected != 1 {
			t.Fatalf("corrected %d bits, injected 1", corrected)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatal("decode did not restore the original codeword")
		}
		if !bytes.Equal(codec.ExtractLine(cw), line) {
			t.Fatal("decoded payload differs from original line")
		}
	})
}

// fuzzSECDEDArbitrary encodes data on one SECDED word, flips posSeed>>62
// distinct bits and checks the verdict each weight calls for, then
// decodes an arbitrary word and line buffer drawn from posSeed.
func fuzzSECDEDArbitrary(t *testing.T, word *SECDED, line *SECDEDLine, data []byte, posSeed uint64) {
	t.Helper()
	orig, err := word.Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	nflips := int(posSeed >> 62)
	rng := fuzzRNG(posSeed)
	cw := append([]byte(nil), orig...)
	for _, p := range fuzzDistinct(&rng, nflips, word.CodewordBits()) {
		fuzzFlip(cw, p)
	}
	if got := word.Detect(cw); nflips < 3 && got != (nflips > 0) {
		t.Fatalf("weight %d: Detect = %v", nflips, got)
	}
	n, err := word.Decode(cw)
	switch {
	case nflips <= 1:
		if err != nil || n != nflips || !bytes.Equal(cw, orig) {
			t.Fatalf("weight %d: Decode = (%d, %v), restored %v", nflips, n, err, bytes.Equal(cw, orig))
		}
	case nflips == 2:
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("weight 2: Decode = (%d, %v), want ErrUncorrectable", n, err)
		}
	case err == nil && word.Detect(cw):
		t.Fatal("weight 3: decode left a detectable word")
	}

	raw := make([]byte, word.CodewordBytes())
	for i := range raw {
		raw[i] = byte(rng.next())
	}
	if _, err := word.Decode(raw); err == nil && word.Detect(raw) {
		t.Fatal("decode of a random word buffer left a detectable word")
	}
	raw = make([]byte, line.LineCodewordBytes())
	for i := range raw {
		raw[i] = byte(rng.next())
	}
	if _, err := line.DecodeLine(raw); err == nil && line.DetectLine(raw) {
		t.Fatal("decode of a random line buffer left a detectable line")
	}
}
