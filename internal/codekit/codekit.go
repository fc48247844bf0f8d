// Package codekit hosts the 64-bit word-parallel primitives behind the
// repository's codec stack: bit-sliced XOR and popcount parity reduction,
// per-byte precomputed BCH syndrome lookup tables, byte-wise polynomial
// remainder tables for systematic encoding, a branch-free incremental
// Chien search, and a slicing-by-8 CRC-16 kernel.
//
// The design contract is strict output equivalence: every kernel in this
// package computes exactly the value its scalar counterpart computes, bit
// for bit, so the fast codecs in internal/bch, internal/ecc and
// internal/ondie stay byte-identical to their *Ref reference
// implementations (enforced by differential fuzz targets in those
// packages, and by the unit tests here against naive reimplementations).
//
// Kernels trade table memory for time. The tables are immutable after
// construction, safe for unsynchronised concurrent readers, and built
// once per code through the caches the consuming packages keep; see
// DESIGN.md ("Codec kernels") for the per-code footprints.
package codekit

import "math/bits"

// GetBit returns bit i of buf (LSB-first packing within each byte).
func GetBit(buf []byte, i int) byte { return (buf[i>>3] >> uint(i&7)) & 1 }

// Parity returns the XOR-fold (0 or 1) of the first n bits of buf,
// reduced 64 bits at a time with a popcount tail.
func Parity(buf []byte, n int) byte {
	var acc uint64
	full := n >> 3 // whole bytes
	i := 0
	for ; i+8 <= full; i += 8 {
		acc ^= le64(buf[i : i+8])
	}
	for ; i < full; i++ {
		acc ^= uint64(buf[i])
	}
	if r := n & 7; r != 0 {
		acc ^= uint64(buf[full] & (1<<uint(r) - 1))
	}
	return byte(bits.OnesCount64(acc) & 1)
}

// OnesCount returns the population count of the first n bits of buf.
func OnesCount(buf []byte, n int) int {
	c := 0
	full := n >> 3
	i := 0
	for ; i+8 <= full; i += 8 {
		c += bits.OnesCount64(le64(buf[i : i+8]))
	}
	for ; i < full; i++ {
		c += bits.OnesCount8(buf[i])
	}
	if r := n & 7; r != 0 {
		c += bits.OnesCount8(buf[full] & (1<<uint(r) - 1))
	}
	return c
}

// XORBytes XORs src into dst element-wise over min(len(dst), len(src))
// bytes, eight at a time.
func XORBytes(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		put64(dst[i:i+8], le64(dst[i:i+8])^le64(src[i:i+8]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// OrShiftBits ORs the first n bits of src into dst starting at bit offset
// off. Bits of dst outside [off, off+n) are untouched; the caller
// guarantees dst holds at least off+n bits.
func OrShiftBits(dst []byte, off int, src []byte, n int) {
	byteOff, bitOff := off>>3, uint(off&7)
	nb := (n + 7) >> 3
	var carry byte
	for i := 0; i < nb; i++ {
		v := src[i]
		if i == nb-1 {
			if r := n & 7; r != 0 {
				v &= 1<<uint(r) - 1
			}
		}
		dst[byteOff+i] |= v<<bitOff | carry
		if bitOff != 0 {
			carry = v >> (8 - bitOff)
		}
	}
	if carry != 0 {
		dst[byteOff+nb] |= carry
	}
}

// ExtractBits copies n bits of src starting at bit offset off into dst
// from bit 0. dst must be zeroed over its first ceil(n/8) bytes.
func ExtractBits(dst, src []byte, off, n int) {
	byteOff, bitOff := off>>3, uint(off&7)
	nb := (n + 7) >> 3
	for i := 0; i < nb; i++ {
		v := src[byteOff+i] >> bitOff
		if bitOff != 0 && byteOff+i+1 < len(src) {
			v |= src[byteOff+i+1] << (8 - bitOff)
		}
		dst[i] |= v
	}
	if r := n & 7; r != 0 {
		dst[nb-1] &= 1<<uint(r) - 1
	}
}

// OrWordsBits ORs the low n bits of the little-endian word vector w into
// dst starting at bit 0.
func OrWordsBits(dst []byte, w []uint64, n int) {
	nb := (n + 7) >> 3
	for i := 0; i < nb; i++ {
		v := byte(w[i>>3] >> uint((i&7)*8))
		if i == nb-1 {
			if r := n & 7; r != 0 {
				v &= 1<<uint(r) - 1
			}
		}
		dst[i] |= v
	}
}

// LoadWords unpacks buf into the little-endian word vector w (padded with
// zero bits past len(buf)).
func LoadWords(w []uint64, buf []byte) {
	for i := range w {
		lo := i * 8
		if lo >= len(buf) {
			w[i] = 0
			continue
		}
		hi := lo + 8
		if hi <= len(buf) {
			w[i] = le64(buf[lo:hi])
			continue
		}
		var v uint64
		for j := lo; j < len(buf); j++ {
			v |= uint64(buf[j]) << uint((j-lo)*8)
		}
		w[i] = v
	}
}

// StoreWords packs the word vector w back into buf (truncating the final
// word to the buffer length).
func StoreWords(buf []byte, w []uint64) {
	for i := range w {
		lo := i * 8
		if lo >= len(buf) {
			return
		}
		hi := lo + 8
		if hi <= len(buf) {
			put64(buf[lo:hi], w[i])
			continue
		}
		for j := lo; j < len(buf); j++ {
			buf[j] = byte(w[i] >> uint((j-lo)*8))
		}
	}
}

// le64 loads 8 bytes little-endian. Manual shifts compile to a single
// MOVQ on little-endian targets; the bounds hint keeps it branch-lean.
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}
