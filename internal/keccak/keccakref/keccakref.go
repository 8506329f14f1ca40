// Package keccakref is the frozen reference Keccak-256: the textbook loop
// permutation (5x5 lanes, modular index arithmetic, table-driven rotations)
// that internal/keccak shipped before its unrolled kernel, kept byte for
// byte. It is an oracle with no production caller: keccak's parity tests
// and FuzzKeccakParity check the fast kernel and the streaming Hasher
// against it on arbitrary input.
//
// Do not optimise this package. Only tests may import it;
// TestOneKernelShips enforces that no command links it.
package keccakref

import (
	"encoding/binary"
	"math/bits"
)

// rate is the sponge rate in bytes for a 256-bit capacity (1600-512)/8.
const rate = 136

var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rotationOffsets[y][x] per the Keccak rho step.
var rotationOffsets = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// keccakF1600 applies the 24-round Keccak-f[1600] permutation in place.
// State indexing: a[x][y] lane at column x, row y.
func keccakF1600(a *[5][5]uint64) {
	var c, d [5]uint64
	var b [5][5]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		for x := 0; x < 5; x++ {
			c[x] = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x][y] ^= d[x]
			}
		}
		// Rho and Pi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y][(2*x+3*y)%5] = bits.RotateLeft64(a[x][y], int(rotationOffsets[x][y]))
			}
		}
		// Chi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x][y] = b[x][y] ^ (^b[(x+1)%5][y] & b[(x+2)%5][y])
			}
		}
		// Iota.
		a[0][0] ^= roundConstants[round]
	}
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [32]byte {
	var state [5][5]uint64

	absorb := func(block []byte) {
		for i := 0; i < rate/8; i++ {
			lane := binary.LittleEndian.Uint64(block[i*8:])
			state[i%5][i/5] ^= lane
		}
		keccakF1600(&state)
	}

	// Absorb all full blocks.
	for len(data) >= rate {
		absorb(data[:rate])
		data = data[rate:]
	}

	// Final block with Keccak (pre-NIST) multi-rate padding 0x01 ... 0x80.
	var block [rate]byte
	copy(block[:], data)
	block[len(data)] = 0x01
	block[rate-1] |= 0x80
	absorb(block[:])

	// Squeeze 32 bytes (fits within one rate block).
	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], state[i%5][i/5])
	}
	return out
}
