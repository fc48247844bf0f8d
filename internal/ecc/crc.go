package ecc

// CRC16 is the lightweight error detector used for cheap scrub reads: a
// CRC-16/CCITT-FALSE checksum stored alongside each line. Detection is a
// checksum recompute-and-compare — far cheaper than a BCH syndrome/decode
// pipeline — at the cost of providing no correction and a 2^-16 aliasing
// probability for dense error patterns.
type CRC16 struct {
	table [256]uint16
}

// CRCPoly is the CCITT polynomial x^16 + x^12 + x^5 + 1.
const CRCPoly = 0x1021

// NewCRC16 builds the detector (table-driven, MSB-first).
func NewCRC16() *CRC16 {
	c := &CRC16{}
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ CRCPoly
			} else {
				crc <<= 1
			}
		}
		c.table[i] = crc
	}
	return c
}

// Sum returns the CRC-16/CCITT-FALSE checksum of data (init 0xFFFF),
// one table lookup per input byte.
func (c *CRC16) Sum(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ c.table[byte(crc>>8)^b]
	}
	return crc
}

// CheckBits returns the detector's storage overhead in bits.
func (c *CRC16) CheckBits() int { return 16 }

// Detect reports whether data fails to match the stored checksum.
func (c *CRC16) Detect(data []byte, stored uint16) bool {
	return c.Sum(data) != stored
}
