// Package keccak implements the Keccak-256 hash as used by Ethereum: the
// original Keccak submission with 0x01 domain padding, not the NIST-final
// SHA3-256 (0x06 padding). Function selectors, event topics, EIP-1967/1822
// storage slots, and CREATE2 addresses all use this variant.
//
// Every cache tier of the detector is keyed by this hash, so it is written
// as a kernel: an unrolled permutation over locals (permute.go), a one-shot
// Sum256 that absorbs straight from the caller's slice, and a streaming
// Hasher for input that arrives in pieces. None of them allocates. The
// loop-form permutation this replaced lives on, frozen, in keccakref as the
// oracle for the parity tests.
package keccak

import (
	"encoding/binary"
	"sync/atomic"
)

// rate is the sponge rate in bytes for a 256-bit capacity (1600-512)/8.
const rate = 136

// absorbBlock XORs one full rate block into the state and permutes.
func absorbBlock(s *[25]uint64, block []byte) {
	_ = block[rate-1]
	for i := 0; i < rate/8; i++ {
		s[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	permute(s)
}

// finish absorbs the trailing partial block under Keccak's pre-NIST
// multi-rate padding (0x01 after the data, 0x80 in the block's last byte)
// and squeezes the 32-byte digest, which fits within one rate block.
func finish(s *[25]uint64, tail []byte) [32]byte {
	if n := sponges.Load(); n != nil {
		n.Add(1)
	}
	lane := 0
	for ; len(tail) >= 8; lane++ {
		s[lane] ^= binary.LittleEndian.Uint64(tail)
		tail = tail[8:]
	}
	var last [8]byte
	copy(last[:], tail)
	last[len(tail)] = 0x01
	s[lane] ^= binary.LittleEndian.Uint64(last[:])
	s[rate/8-1] ^= 0x80 << 56
	permute(s)

	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], s[i])
	}
	return out
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [32]byte {
	var s [25]uint64
	for len(data) >= rate {
		absorbBlock(&s, data)
		data = data[rate:]
	}
	return finish(&s, data)
}

// Hasher is a streaming Keccak-256: Write the input in any number of
// pieces, then Sum256. The digest equals Sum256 of the concatenation. The
// zero value is ready to use and the whole state is inline, so a Hasher
// declared as a local stays on the stack.
type Hasher struct {
	s   [25]uint64
	buf [rate]byte // bytes of the current, not yet full block
	n   int        // how many of them
}

// Write absorbs p. It never fails; the results make Hasher an io.Writer.
func (h *Hasher) Write(p []byte) (int, error) {
	written := len(p)
	if h.n > 0 {
		c := copy(h.buf[h.n:], p)
		h.n += c
		p = p[c:]
		if h.n < rate {
			return written, nil
		}
		absorbBlock(&h.s, h.buf[:])
		h.n = 0
	}
	for len(p) >= rate {
		absorbBlock(&h.s, p)
		p = p[rate:]
	}
	h.n = copy(h.buf[:], p)
	return written, nil
}

// Sum256 returns the digest of everything written so far. It leaves the
// Hasher untouched, so more input may follow.
func (h *Hasher) Sum256() [32]byte {
	s := h.s
	return finish(&s, h.buf[:h.n])
}

// Selector returns the first four bytes of the Keccak-256 hash of the given
// function prototype string, i.e. the Ethereum function selector.
func Selector(prototype string) [4]byte {
	h := Sum256([]byte(prototype))
	return [4]byte{h[0], h[1], h[2], h[3]}
}

// sponges counts finished digests while CountSponges is running and is nil
// otherwise, which costs the kernel one predictable branch per digest.
var sponges atomic.Pointer[atomic.Int64]

// CountSponges runs fn and returns how many digests (Sum256 calls and
// Hasher.Sum256 calls, on any goroutine) finished meanwhile. It exists for
// the tests that pin how often a path hashes — one sponge run per
// structural follower, none of the production kernel in the calibration
// workload — and must not be called concurrently with itself.
func CountSponges(fn func()) int64 {
	var n atomic.Int64
	sponges.Store(&n)
	defer sponges.Store(nil)
	fn()
	return n.Load()
}
