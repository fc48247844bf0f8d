// Package ecc defines the error-correction abstractions used by the scrub
// simulator, plus concrete codecs: an extended-Hamming SECDED code (the
// DRAM baseline), line-level BCH schemes (the paper's strong ECC), and a
// CRC-based lightweight error *detector* (the paper's cheap scrub-read
// check that avoids a full decode).
//
// The simulator only asks a Scheme whether an error count is
// correctable; the codecs themselves are plain scalar code, run by
// tests, fuzzing and the codec examples to show that each scheme's
// claimed strength is backed by a real encoder and decoder.
package ecc

import (
	"errors"

	"repro/internal/stats"
)

// ErrUncorrectable reports an error pattern beyond a codec's correction
// capability.
var ErrUncorrectable = errors.New("ecc: uncorrectable error pattern")

// Scheme describes the protection applied to one memory line, at the level
// of detail the reliability simulator needs: geometry, correction strength,
// and whether a given number of randomly placed bit errors is correctable.
//
// Correctable may consult the RNG because some schemes are
// placement-dependent: per-word SECDED corrects 8 errors that land in 8
// different words but not 2 errors in the same word.
type Scheme interface {
	// Name identifies the scheme in reports, e.g. "SECDED" or "BCH-4".
	Name() string
	// DataBits is the protected payload size in bits.
	DataBits() int
	// CheckBits is the total ECC storage overhead in bits.
	CheckBits() int
	// T is the per-line correction capability in the best case.
	T() int
	// Correctable reports whether nerr uniformly-placed distinct bit errors
	// in the line are correctable.
	Correctable(r *stats.RNG, nerr int) bool
}

// UncorrectableProb estimates, by Monte Carlo over placements, the
// probability that nerr random bit errors defeat the scheme. For
// placement-independent schemes this is exactly 0 or 1 and a single trial
// suffices; callers can pass trials=1 in that case.
func UncorrectableProb(s Scheme, r *stats.RNG, nerr, trials int) float64 {
	if trials < 1 {
		trials = 1
	}
	fail := 0
	for i := 0; i < trials; i++ {
		if !s.Correctable(r, nerr) {
			fail++
		}
	}
	return float64(fail) / float64(trials)
}

// BCHScheme is a placement-independent line scheme that corrects up to t
// errors anywhere in the line, with geometry taken from a real BCH code.
type BCHScheme struct {
	name      string
	dataBits  int
	checkBits int
	t         int
}

// NewBCHScheme describes a BCH-t code protecting dataBits with checkBits
// of storage. Geometry is supplied by the caller (see NewBCHLine for a
// scheme backed by a real codec).
func NewBCHScheme(name string, dataBits, checkBits, t int) *BCHScheme {
	return &BCHScheme{name: name, dataBits: dataBits, checkBits: checkBits, t: t}
}

// Name implements Scheme.
func (s *BCHScheme) Name() string { return s.name }

// DataBits implements Scheme.
func (s *BCHScheme) DataBits() int { return s.dataBits }

// CheckBits implements Scheme.
func (s *BCHScheme) CheckBits() int { return s.checkBits }

// T implements Scheme.
func (s *BCHScheme) T() int { return s.t }

// Correctable implements Scheme: a t-error-correcting code over the whole
// line corrects any pattern of up to t errors, independent of placement.
func (s *BCHScheme) Correctable(_ *stats.RNG, nerr int) bool {
	return nerr <= s.t
}

// WordSECDEDScheme models the DRAM baseline: an independent SECDED code on
// each machine word of the line (e.g. 8 × (72,64) for a 64-byte line).
// It corrects one error per word, so correctability depends on where the
// errors land.
type WordSECDEDScheme struct {
	words       int
	bitsPerWord int // data + check bits per word
	dataPerWord int
}

// NewWordSECDEDScheme builds a per-word SECDED scheme with the given number
// of words and data bits per word; check bits per word follow the extended
// Hamming construction.
func NewWordSECDEDScheme(words, dataPerWord int) *WordSECDEDScheme {
	check := hammingCheckBits(dataPerWord) + 1 // +1 overall parity
	return &WordSECDEDScheme{
		words:       words,
		bitsPerWord: dataPerWord + check,
		dataPerWord: dataPerWord,
	}
}

// Name implements Scheme.
func (s *WordSECDEDScheme) Name() string { return "SECDED" }

// DataBits implements Scheme.
func (s *WordSECDEDScheme) DataBits() int { return s.words * s.dataPerWord }

// CheckBits implements Scheme.
func (s *WordSECDEDScheme) CheckBits() int {
	return s.words * (s.bitsPerWord - s.dataPerWord)
}

// T implements Scheme: at best one error per word is correctable.
func (s *WordSECDEDScheme) T() int { return s.words }

// Words returns the number of independently protected words.
func (s *WordSECDEDScheme) Words() int { return s.words }

// Correctable implements Scheme by sampling a placement of nerr distinct
// bit errors over the line and checking that no word receives two.
//
// This runs in the simulator's inner loop, so the common geometry
// (words <= 64) is allocation-free: sampled positions live in a fixed
// stack array (at most one distinct position per word before the word
// occupancy check fails) and per-word hits in a 64-bit mask. The draw
// sequence is identical to the original map-based sampler — duplicates
// redraw, a second hit in one word fails immediately — so simulation
// results are bit-for-bit unchanged.
func (s *WordSECDEDScheme) Correctable(r *stats.RNG, nerr int) bool {
	if nerr <= 1 {
		return true
	}
	if nerr > s.words {
		return false // pigeonhole: some word must take two
	}
	total := s.words * s.bitsPerWord
	if s.words <= 64 {
		var seen [64]int32
		nseen := 0
		var wordMask uint64
		for placed := 0; placed < nerr; {
			pos := r.Intn(total)
			dup := false
			for i := 0; i < nseen; i++ {
				if seen[i] == int32(pos) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[nseen] = int32(pos)
			nseen++
			w := uint(pos / s.bitsPerWord)
			if wordMask>>w&1 != 0 {
				return false
			}
			wordMask |= 1 << w
			placed++
		}
		return true
	}
	return s.correctableMap(r, nerr)
}

// correctableMap is the original map-based sampler, kept for wide
// geometries (words > 64) and as the draw-sequence reference the
// allocation-free path is tested against.
func (s *WordSECDEDScheme) correctableMap(r *stats.RNG, nerr int) bool {
	if nerr <= 1 {
		return true
	}
	if nerr > s.words {
		return false
	}
	total := s.words * s.bitsPerWord
	hits := make(map[int]bool, nerr)
	perWord := make([]int, s.words)
	for placed := 0; placed < nerr; {
		pos := r.Intn(total)
		if hits[pos] {
			continue
		}
		hits[pos] = true
		w := pos / s.bitsPerWord
		perWord[w]++
		if perWord[w] > 1 {
			return false
		}
		placed++
	}
	return true
}

// hammingCheckBits returns the number of Hamming parity bits r needed to
// cover dataBits: the smallest r with 2^r >= dataBits + r + 1.
func hammingCheckBits(dataBits int) int {
	r := 1
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	return r
}
