package keccak

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/keccak/keccakref"
)

// pattern returns n deterministic, non-repeating-per-lane bytes.
func pattern(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte(i*7 + 3)
	}
	return in
}

// streamed hashes data through a Hasher, cutting it at the given offsets
// (each taken modulo what is left, so any ints are valid cuts).
func streamed(data []byte, cuts ...int) [32]byte {
	var h Hasher
	for _, c := range cuts {
		if len(data) == 0 {
			break
		}
		n := int(uint(c) % uint(len(data)+1))
		h.Write(data[:n])
		data = data[n:]
	}
	h.Write(data)
	return h.Sum256()
}

// TestBoundaryVectors pins digests on both sides of every sponge-block
// edge (the rate is 136 bytes). The expected values were produced by the
// loop permutation before the kernel replaced it; the frozen reference and
// the streaming Hasher, fed byte by byte and in one piece, must agree.
func TestBoundaryVectors(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{1, "69c322e3248a5dfc29d73c5b0553b0185a35cd5bb6386747517ef7e53b15e287"},
		{135, "00ef96af9cf4b24c7f269d922294444a197d0a33638c2e56634c57e892103a8f"},
		{136, "742061bcad767ed4c4f5883b1dcb1aad11afdcc140dc469d953759b127b9f9ed"},
		{137, "e3371f61e770abf254c34239c3b0099ad90594507415bc81dd0a10b9692bbf2a"},
		{271, "4401c4afbe16ff911bdbf2d38e556e5b861f3fdf0f9d4306b1c46f6ae4f73584"},
		{272, "ac141fd7b0a0ffcd2e967254d508da3ec616596493c36fa304425647d90e6de5"},
		{273, "16192ea86793083e47731cb3c970600f04768414d92bc0540e54ce8607a0fce0"},
		{4096, "76295a231bfe3ebd9c161d54151579ec47d822a168c11d53ed0471b01ce83520"},
	}
	for _, c := range cases {
		in := pattern(c.n)
		got := Sum256(in)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Sum256(len %d) = %x, want %s", c.n, got, c.want)
		}
		if ref := keccakref.Sum256(in); ref != got {
			t.Errorf("len %d: reference %x, kernel %x", c.n, ref, got)
		}
		if one := streamed(in); one != got {
			t.Errorf("len %d: Hasher in one piece %x, Sum256 %x", c.n, one, got)
		}
		var h Hasher
		for i := range in {
			h.Write(in[i : i+1])
		}
		if each := h.Sum256(); each != got {
			t.Errorf("len %d: Hasher byte by byte %x, Sum256 %x", c.n, each, got)
		}
	}
}

// TestKernelMatchesReference sweeps every length across the first three
// blocks with random content, and every two-piece split of each.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 3*rate+1; n++ {
		in := make([]byte, n)
		rng.Read(in)
		want := keccakref.Sum256(in)
		if got := Sum256(in); got != want {
			t.Fatalf("len %d: kernel %x, reference %x", n, got, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got := streamed(in, cut); got != want {
				t.Fatalf("len %d split at %d: Hasher %x, reference %x", n, cut, got, want)
			}
		}
	}
}

// TestHasherSumIsRepeatable pins that Sum256 does not disturb the stream:
// a digest taken mid-way equals the prefix's, and writing on continues it.
func TestHasherSumIsRepeatable(t *testing.T) {
	in := pattern(300)
	var h Hasher
	h.Write(in[:150])
	if got, want := h.Sum256(), Sum256(in[:150]); got != want {
		t.Fatalf("mid-stream digest %x, want %x", got, want)
	}
	if n, err := h.Write(in[150:]); n != 150 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got, want := h.Sum256(), Sum256(in); got != want {
		t.Fatalf("continued digest %x, want %x", got, want)
	}
}

func TestNoAllocs(t *testing.T) {
	in := pattern(1000)
	var sink [32]byte
	if n := testing.AllocsPerRun(100, func() { sink = Sum256(in) }); n != 0 {
		t.Errorf("Sum256 allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var h Hasher
		h.Write(in[:77])
		h.Write(in[77:])
		sink = h.Sum256()
	}); n != 0 {
		t.Errorf("Hasher allocates %v times per digest", n)
	}
	_ = sink
}

// TestCountSponges pins the counting hook the hash-once tests rely on: one
// per finished digest, whichever entry point produced it, none outside.
func TestCountSponges(t *testing.T) {
	in := pattern(500)
	got := CountSponges(func() {
		Sum256(in)
		Selector("transfer(address,uint256)")
		var h Hasher
		h.Write(in)
		h.Sum256()
		keccakref.Sum256(in)
	})
	if got != 3 {
		t.Fatalf("counted %d sponge runs, want 3", got)
	}
	if sponges.Load() != nil {
		t.Fatal("counter still installed after CountSponges returned")
	}
}

// FuzzKeccakParity is the slow path checking the fast path: on arbitrary
// bytes the unrolled kernel must equal the frozen loop permutation, and a
// Hasher fed the same bytes cut at arbitrary points must equal both.
func FuzzKeccakParity(f *testing.F) {
	f.Add([]byte(nil), 0, 0)
	f.Add([]byte("abc"), 1, 1)
	f.Add(pattern(rate-1), 1, 100)
	f.Add(pattern(rate), rate, 0)
	f.Add(pattern(rate+1), 7, rate)
	f.Add(pattern(2*rate), rate-1, 2)
	f.Add(pattern(4096), 135, 137)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 int) {
		want := keccakref.Sum256(data)
		if got := Sum256(data); got != want {
			t.Fatalf("len %d: kernel %x, reference %x", len(data), got, want)
		}
		if got := streamed(data, cut1, cut2); got != want {
			t.Fatalf("len %d cuts %d,%d: Hasher %x, reference %x", len(data), cut1, cut2, got, want)
		}
	})
}

func BenchmarkHasherBlock(b *testing.B) {
	data := pattern(1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var h Hasher
		h.Write(data[:300])
		h.Write(data[300:])
		h.Sum256()
	}
}
