package evm

import (
	"bytes"
	"testing"

	"repro/internal/u256"
)

// above64 is a value that does not fit in a uint64 (2^64).
var above64 = u256.FromBytes([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})

// TestToOffsetBoundaries pins the scalar conversion: anything up to
// memoryCap converts, anything beyond (or beyond uint64) is out-of-gas.
func TestToOffsetBoundaries(t *testing.T) {
	cases := []struct {
		name string
		v    u256.Int
		want uint64
		ok   bool
	}{
		{"zero", u256.Zero(), 0, true},
		{"one", u256.FromUint64(1), 1, true},
		{"cap", u256.FromUint64(memoryCap), memoryCap, true},
		{"cap+1", u256.FromUint64(memoryCap + 1), 0, false},
		{"max-uint64", u256.FromUint64(^uint64(0)), 0, false},
		{"2^64", above64, 0, false},
	}
	for _, tc := range cases {
		got, err := toOffset(tc.v)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil && err != ErrOutOfGas {
			t.Errorf("%s: err=%v, want ErrOutOfGas", tc.name, err)
		}
		if tc.ok && got != tc.want {
			t.Errorf("%s: offset=%d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestToRegionBoundaries pins the joint offset+size validation around
// memoryCap — the edge the old split checks deferred to the charge path.
// Each part may individually sit at the cap, but a non-empty region whose
// sum crosses it must fail here, and the uint64 sum can never overflow
// because both parts are already ≤ 2^32.
func TestToRegionBoundaries(t *testing.T) {
	u := u256.FromUint64
	cases := []struct {
		name      string
		off, size u256.Int
		wantOff   uint64
		wantSize  uint64
		ok        bool
	}{
		{"zero-zero", u(0), u(0), 0, 0, true},
		{"zero-size-at-cap-offset", u(memoryCap), u(0), memoryCap, 0, true},
		{"sum-exactly-cap", u(memoryCap - 32), u(32), memoryCap - 32, 32, true},
		{"sum-cap-plus-one", u(memoryCap - 31), u(32), 0, 0, false},
		{"offset-at-cap-nonzero-size", u(memoryCap), u(1), 0, 0, false},
		{"size-at-cap-nonzero-offset", u(1), u(memoryCap), 0, 0, false},
		{"both-at-cap", u(memoryCap), u(memoryCap), 0, 0, false},
		{"offset-past-cap", u(memoryCap + 1), u(0), 0, 0, false},
		{"size-past-cap", u(0), u(memoryCap + 1), 0, 0, false},
		{"offset-not-uint64", above64, u(0), 0, 0, false},
		{"size-not-uint64", u(0), above64, 0, 0, false},
		{"full-cap-from-zero", u(0), u(memoryCap), 0, memoryCap, true},
	}
	for _, tc := range cases {
		off, size, err := toRegion(tc.off, tc.size)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil && err != ErrOutOfGas {
			t.Errorf("%s: err=%v, want ErrOutOfGas", tc.name, err)
		}
		if tc.ok && (off != tc.wantOff || size != tc.wantSize) {
			t.Errorf("%s: region=(%d,%d), want (%d,%d)", tc.name, off, size, tc.wantOff, tc.wantSize)
		}
	}
}

// TestZeroPadded pins *COPY source semantics on the reference loop's
// frozen helper: reads past the end of the source zero-fill, including
// offsets past the end entirely and offsets that only a malicious size
// pushes out of range.
func TestZeroPadded(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	cases := []struct {
		name         string
		offset, size uint64
		want         []byte
	}{
		{"zero-size", 2, 0, nil},
		{"exact", 0, 4, []byte{1, 2, 3, 4}},
		{"interior", 1, 2, []byte{2, 3}},
		{"pad-tail", 2, 4, []byte{3, 4, 0, 0}},
		{"offset-at-end", 4, 3, []byte{0, 0, 0}},
		{"offset-past-end", 100, 2, []byte{0, 0}},
		{"huge-offset", ^uint64(0), 2, []byte{0, 0}},
		{"empty-src", 0, 3, []byte{0, 0, 0}},
	}
	for _, tc := range cases {
		s := src
		if tc.name == "empty-src" {
			s = nil
		}
		if got := refZeroPadded(s, tc.offset, tc.size); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: refZeroPadded=%x, want %x", tc.name, got, tc.want)
		}
	}
}

// TestSetPaddedMatchesZeroPadded holds the shipped in-place copy to the
// frozen helper: over memory already holding non-zero bytes, setPadded
// leaves exactly the bytes refZeroPadded builds, and nothing outside the
// region changes.
func TestSetPaddedMatchesZeroPadded(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	for _, offset := range []uint64{0, 1, 3, 4, 100} {
		for _, size := range []uint64{0, 1, 2, 4, 7, 40} {
			var m Memory
			for i := uint64(0); i < 96; i++ {
				m.SetByte(i, 0xee)
			}
			var tail []byte
			if offset < uint64(len(src)) {
				tail = src[offset:]
			}
			const dst = 5
			m.setPadded(dst, size, tail)
			want := bytes.Repeat([]byte{0xee}, 96)
			copy(want[dst:], refZeroPadded(src, offset, size))
			if got := m.View(0, 96); !bytes.Equal(got, want) {
				t.Errorf("offset %d size %d: memory=%x, want %x", offset, size, got, want)
			}
		}
	}
}

// TestMemoryExpandReuse pins the pooled-memory contract: capacity retained
// across release is re-exposed zeroed, and oversized buffers are dropped.
func TestMemoryExpandReuse(t *testing.T) {
	var m Memory
	m.SetByte(100, 0xab)
	if m.Len() != 128 {
		t.Fatalf("Len=%d after SetByte(100), want word-rounded 128", m.Len())
	}

	m.release()
	if m.Len() != 0 {
		t.Fatalf("Len=%d after release", m.Len())
	}
	// Re-expanding into the retained capacity must read as zero.
	if got := m.GetWord(96); !got.Eq(u256.Zero()) {
		t.Fatalf("retained capacity leaked stale byte: %s", got.Hex())
	}

	// A buffer past the retain cap is dropped on release.
	m.expand(0, memoryRetainCap+32)
	m.release()
	if m.data != nil {
		t.Fatalf("release retained a %d-byte buffer past memoryRetainCap", cap(m.data))
	}
}
