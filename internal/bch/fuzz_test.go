package bch

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzRNG is a tiny splitmix64 so flip positions derive deterministically
// from the fuzz input without importing other repro packages.
type fuzzRNG uint64

func (r *fuzzRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// distinctPositions extends pos with distinct bit positions in
// [0, total), none already in pos, until it holds n.
func distinctPositions(r *fuzzRNG, pos []int, n, total int) []int {
	seen := make(map[int]bool, n)
	for _, p := range pos {
		seen[p] = true
	}
	for len(pos) < n {
		p := int(r.next() % uint64(total))
		if !seen[p] {
			seen[p] = true
			pos = append(pos, p)
		}
	}
	return pos
}

// fuzzShapes are the codes FuzzBCHRoundTrip runs every input through:
// a line-style strength on GF(2^8), the on-die word shape (GF(2^7), as
// ForPayload(64, 2) selects) and a shortened GF(2^8) code whose payload
// ends in a partial byte.
var fuzzShapes = []struct {
	m, t, msgBits int
}{
	{8, 4, 128},
	{7, 2, 64},
	{8, 2, 100},
}

// FuzzBCHRoundTrip drives encode → corrupt → decode with a fuzzer-chosen
// message, flip count and flip placement on every shape in fuzzShapes,
// checking the code's contract on both sides of the capability boundary:
//
//   - ≤ T flips: Decode must restore the exact original codeword and
//     report exactly the injected count; Detect must fire for ≥ 1 flip.
//   - T < flips ≤ 2T: the pattern is within the minimum distance, so
//     Detect must still fire, and Decode must either refuse
//     (ErrUncorrectable) or miscorrect to a *different* valid codeword —
//     it can never silently reproduce the original, which would require
//     correcting more than T bits.
//
// The top two bits of posSeed pin flips to the shortened support's
// edges (bit 63: the last support bit, bit 62: bit 0). A random buffer
// drawn from the same seed must then decode to a word Detect calls
// clean, or be refused.
func FuzzBCHRoundTrip(f *testing.F) {
	codes := make([]*Code, len(fuzzShapes))
	for i, s := range fuzzShapes {
		codes[i] = MustNew(s.m, s.t)
	}

	f.Add([]byte{0x00, 0x00}, byte(0), uint64(1))
	f.Add([]byte{0xff, 0x3c}, byte(1), uint64(2))
	f.Add([]byte("fuzz-seed-corpus"), byte(4), uint64(42))   // at capability
	f.Add([]byte("beyond-capability"), byte(5), uint64(7))   // t+1
	f.Add([]byte{0xa5, 0x5a, 0x33}, byte(8), uint64(0xdead)) // 2t
	f.Add([]byte("edge-low"), byte(2), uint64(1<<62|3))      // flip at bit 0
	f.Add([]byte("edge-high"), byte(2), uint64(1<<63|4))     // flip at support-1
	f.Add([]byte("edge-both"), byte(3), uint64(3<<62|5))     // both edges
	f.Add([]byte("overflow-t2"), byte(6), uint64(3<<62|0xbeef))
	f.Fuzz(func(t *testing.T, msg []byte, nraw byte, posSeed uint64) {
		for i, s := range fuzzShapes {
			fuzzRoundTrip(t, codes[i], s.msgBits, msg, nraw, posSeed)
		}
	})
}

func fuzzRoundTrip(t *testing.T, code *Code, msgBits int, msg []byte, nraw byte, posSeed uint64) {
	t.Helper()
	total := code.ParityBits() + msgBits
	buf := make([]byte, (msgBits+7)/8)
	copy(buf, msg)
	if r := msgBits % 8; r != 0 {
		buf[len(buf)-1] &= 1<<r - 1
	}
	orig, err := code.Encode(buf, msgBits)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if code.Detect(orig, msgBits) {
		t.Fatal("fresh codeword reported dirty")
	}

	nflips := int(nraw) % (2*code.T() + 1) // 0 .. 2t
	rng := fuzzRNG(posSeed)
	var forced []int
	if posSeed>>63 != 0 && len(forced) < nflips {
		forced = append(forced, total-1)
	}
	if posSeed>>62&1 != 0 && len(forced) < nflips {
		forced = append(forced, 0)
	}
	cw := append([]byte(nil), orig...)
	for _, p := range distinctPositions(&rng, forced, nflips, total) {
		flipBit(cw, p)
	}

	if nflips >= 1 && !code.Detect(cw, msgBits) {
		// Weight ≤ 2t sits inside the minimum distance: always detectable.
		t.Fatalf("t=%d: %d flips (≤ 2t) escaped Detect", code.T(), nflips)
	}

	corrected, err := code.Decode(cw, msgBits)
	switch {
	case nflips <= code.T():
		if err != nil {
			t.Fatalf("t=%d: %d ≤ t flips uncorrectable: %v", code.T(), nflips, err)
		}
		if corrected != nflips {
			t.Fatalf("t=%d: corrected %d bits, injected %d", code.T(), corrected, nflips)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatalf("t=%d: decode did not restore the original codeword", code.T())
		}
		if !bytes.Equal(code.ExtractMessage(cw, msgBits), buf) {
			t.Fatalf("t=%d: decoded message differs from original", code.T())
		}
	case err == nil:
		// Beyond capability: refusing is the good outcome; a
		// miscorrection must land on a different codeword (distance to
		// orig is > t, but Decode flips at most t bits).
		if corrected > code.T() {
			t.Fatalf("t=%d: claimed to correct %d > t bits", code.T(), corrected)
		}
		if bytes.Equal(cw, orig) {
			t.Fatalf("t=%d: %d > t flips reported as clean correction of the original", code.T(), nflips)
		}
		if code.Detect(cw, msgBits) {
			t.Fatalf("t=%d: successful decode left a detectable word", code.T())
		}
	case !errors.Is(err, ErrUncorrectable):
		t.Fatalf("t=%d: unexpected decode error: %v", code.T(), err)
	}

	// An arbitrary buffer, not near any codeword on purpose.
	raw := make([]byte, len(orig))
	for i := range raw {
		raw[i] = byte(rng.next())
	}
	if _, err := code.Decode(raw, msgBits); err == nil {
		if code.Detect(raw, msgBits) {
			t.Fatalf("t=%d: decode of a random buffer left a detectable word", code.T())
		}
	} else if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("t=%d: unexpected decode error on a random buffer: %v", code.T(), err)
	}
}
