package keccak

import "math/bits"

var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// permute applies the 24-round Keccak-f[1600] permutation in place. The
// state is flat: lane (x, y) of the specification lives at s[x+5*y], which is
// also the order the sponge XORs input words in.
//
// The kernel keeps all 25 lanes in locals and is unrolled two rounds per
// loop iteration: an even round reads a0..a24 and writes e0..e24, the odd
// round reads them back, so neither copies the state nor needs a scratch
// array. Within a round the steps are fused per output row: theta's column
// parities c and their combinations d come first, then for each row the
// five lanes that rho and pi move into it are rotated by their (constant)
// offsets into b0..b4 and chi writes the row; iota folds into lane 0.
// keccakref holds the loop form this was derived from and is the oracle
// the parity tests and FuzzKeccakParity check it against.
func permute(s *[25]uint64) {
	a0, a1, a2, a3, a4 := s[0], s[1], s[2], s[3], s[4]
	a5, a6, a7, a8, a9 := s[5], s[6], s[7], s[8], s[9]
	a10, a11, a12, a13, a14 := s[10], s[11], s[12], s[13], s[14]
	a15, a16, a17, a18, a19 := s[15], s[16], s[17], s[18], s[19]
	a20, a21, a22, a23, a24 := s[20], s[21], s[22], s[23], s[24]
	var (
		e0, e1, e2, e3, e4      uint64
		e5, e6, e7, e8, e9      uint64
		e10, e11, e12, e13, e14 uint64
		e15, e16, e17, e18, e19 uint64
		e20, e21, e22, e23, e24 uint64
		c0, c1, c2, c3, c4      uint64
		d0, d1, d2, d3, d4      uint64
		b0, b1, b2, b3, b4      uint64
	)
	for r := 0; r < 24; r += 2 {
		c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)
		b0 = a0 ^ d0
		b1 = bits.RotateLeft64(a6^d1, 44)
		b2 = bits.RotateLeft64(a12^d2, 43)
		b3 = bits.RotateLeft64(a18^d3, 21)
		b4 = bits.RotateLeft64(a24^d4, 14)
		e0 = b0 ^ (b2 &^ b1) ^ roundConstants[r]
		e1 = b1 ^ (b3 &^ b2)
		e2 = b2 ^ (b4 &^ b3)
		e3 = b3 ^ (b0 &^ b4)
		e4 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(a3^d3, 28)
		b1 = bits.RotateLeft64(a9^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e5 = b0 ^ (b2 &^ b1)
		e6 = b1 ^ (b3 &^ b2)
		e7 = b2 ^ (b4 &^ b3)
		e8 = b3 ^ (b0 &^ b4)
		e9 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(a1^d1, 1)
		b1 = bits.RotateLeft64(a7^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 = b0 ^ (b2 &^ b1)
		e11 = b1 ^ (b3 &^ b2)
		e12 = b2 ^ (b4 &^ b3)
		e13 = b3 ^ (b0 &^ b4)
		e14 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(a4^d4, 27)
		b1 = bits.RotateLeft64(a5^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 = b0 ^ (b2 &^ b1)
		e16 = b1 ^ (b3 &^ b2)
		e17 = b2 ^ (b4 &^ b3)
		e18 = b3 ^ (b0 &^ b4)
		e19 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(a2^d2, 62)
		b1 = bits.RotateLeft64(a8^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		e20 = b0 ^ (b2 &^ b1)
		e21 = b1 ^ (b3 &^ b2)
		e22 = b2 ^ (b4 &^ b3)
		e23 = b3 ^ (b0 &^ b4)
		e24 = b4 ^ (b1 &^ b0)

		c0 = e0 ^ e5 ^ e10 ^ e15 ^ e20
		c1 = e1 ^ e6 ^ e11 ^ e16 ^ e21
		c2 = e2 ^ e7 ^ e12 ^ e17 ^ e22
		c3 = e3 ^ e8 ^ e13 ^ e18 ^ e23
		c4 = e4 ^ e9 ^ e14 ^ e19 ^ e24
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)
		b0 = e0 ^ d0
		b1 = bits.RotateLeft64(e6^d1, 44)
		b2 = bits.RotateLeft64(e12^d2, 43)
		b3 = bits.RotateLeft64(e18^d3, 21)
		b4 = bits.RotateLeft64(e24^d4, 14)
		a0 = b0 ^ (b2 &^ b1) ^ roundConstants[r+1]
		a1 = b1 ^ (b3 &^ b2)
		a2 = b2 ^ (b4 &^ b3)
		a3 = b3 ^ (b0 &^ b4)
		a4 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(e3^d3, 28)
		b1 = bits.RotateLeft64(e9^d4, 20)
		b2 = bits.RotateLeft64(e10^d0, 3)
		b3 = bits.RotateLeft64(e16^d1, 45)
		b4 = bits.RotateLeft64(e22^d2, 61)
		a5 = b0 ^ (b2 &^ b1)
		a6 = b1 ^ (b3 &^ b2)
		a7 = b2 ^ (b4 &^ b3)
		a8 = b3 ^ (b0 &^ b4)
		a9 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(e1^d1, 1)
		b1 = bits.RotateLeft64(e7^d2, 6)
		b2 = bits.RotateLeft64(e13^d3, 25)
		b3 = bits.RotateLeft64(e19^d4, 8)
		b4 = bits.RotateLeft64(e20^d0, 18)
		a10 = b0 ^ (b2 &^ b1)
		a11 = b1 ^ (b3 &^ b2)
		a12 = b2 ^ (b4 &^ b3)
		a13 = b3 ^ (b0 &^ b4)
		a14 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(e4^d4, 27)
		b1 = bits.RotateLeft64(e5^d0, 36)
		b2 = bits.RotateLeft64(e11^d1, 10)
		b3 = bits.RotateLeft64(e17^d2, 15)
		b4 = bits.RotateLeft64(e23^d3, 56)
		a15 = b0 ^ (b2 &^ b1)
		a16 = b1 ^ (b3 &^ b2)
		a17 = b2 ^ (b4 &^ b3)
		a18 = b3 ^ (b0 &^ b4)
		a19 = b4 ^ (b1 &^ b0)
		b0 = bits.RotateLeft64(e2^d2, 62)
		b1 = bits.RotateLeft64(e8^d3, 55)
		b2 = bits.RotateLeft64(e14^d4, 39)
		b3 = bits.RotateLeft64(e15^d0, 41)
		b4 = bits.RotateLeft64(e21^d1, 2)
		a20 = b0 ^ (b2 &^ b1)
		a21 = b1 ^ (b3 &^ b2)
		a22 = b2 ^ (b4 &^ b3)
		a23 = b3 ^ (b0 &^ b4)
		a24 = b4 ^ (b1 &^ b0)
	}
	s[0], s[1], s[2], s[3], s[4] = a0, a1, a2, a3, a4
	s[5], s[6], s[7], s[8], s[9] = a5, a6, a7, a8, a9
	s[10], s[11], s[12], s[13], s[14] = a10, a11, a12, a13, a14
	s[15], s[16], s[17], s[18], s[19] = a15, a16, a17, a18, a19
	s[20], s[21], s[22], s[23], s[24] = a20, a21, a22, a23, a24
}
