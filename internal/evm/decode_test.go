package evm

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// TestDecodeJumpIndex pins jumpIdx: JUMPDEST pcs map to their instruction
// index, everything else (including a 0x5b byte inside push data) is -1.
func TestDecodeJumpIndex(t *testing.T) {
	// PUSH2 0x5b5b (push data mimics JUMPDEST); JUMPDEST; STOP
	code := []byte{0x61, 0x5b, 0x5b, 0x5b, 0x00}
	p := decode(code)
	if got := p.jumpTo(u256.FromUint64(3)); got < 0 || p.instrs[got].op != JUMPDEST {
		t.Fatalf("jumpTo(3)=%d, want index of the real JUMPDEST", got)
	}
	for _, pc := range []uint64{0, 1, 2, 4, 5, 100} {
		if got := p.jumpTo(u256.FromUint64(pc)); got != -1 {
			t.Errorf("jumpTo(%d)=%d, want -1", pc, got)
		}
	}
	if got := p.jumpTo(u256.FromBytes([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3})); got != -1 {
		t.Errorf("jumpTo(2^64+3)=%d, want -1", got)
	}
}

// TestDecodeTruncatedPush pins the pad-with-trailing-zeros immediate of a
// PUSH cut off by end of code, matching the reference loop's semantics.
func TestDecodeTruncatedPush(t *testing.T) {
	// PUSH32 with only one data byte: value is 0x01 followed by 31 zeros.
	p := decode([]byte{0x7f, 0x01})
	if len(p.instrs) != 1 || p.instrs[0].kind != kindPush {
		t.Fatalf("decoded %d instrs, want one push", len(p.instrs))
	}
	var want [32]byte
	want[0] = 0x01
	if got := p.word(p.instrs[0].imm); !got.Eq(u256.FromBytes32(want)) {
		t.Fatalf("truncated push32 imm=%s, want 0x01 zero-padded", got.Hex())
	}

	// PUSH1 with no data at all: immediate is zero.
	p = decode([]byte{0x60})
	if got := p.word(p.instrs[0].imm); !got.Eq(u256.Zero()) {
		t.Fatalf("dataless push1 imm=%s, want 0", got.Hex())
	}
}

// TestProgramCache pins the cache contract: one program per code hash,
// zero hashes bypass it, and the stats counters track hits and misses.
func TestProgramCache(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	code := []byte{0x60, 0x01, 0x60, 0x02, 0x01, 0x00}
	hash := keccak.Sum256(code)

	p1 := programFor(hash, code)
	for i := 0; i < 2; i++ {
		if !sameProgram(programFor(hash, code), p1) {
			t.Fatalf("request %d for one code hash returned a second program", i+2)
		}
	}
	if hits, misses, entries := DecodeCacheStats(); hits != 2 || misses != 1 || entries != 1 {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want 2/1/1", hits, misses, entries)
	}

	// Zero hash bypasses the cache: fresh program, no counter movement.
	z1 := programFor(etypes.Hash{}, code)
	z2 := programFor(etypes.Hash{}, code)
	if sameProgram(z1, z2) {
		t.Fatalf("zero-hash decodes must not be cached")
	}
	if hits, misses, _ := DecodeCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("zero-hash decode moved cache counters: hits=%d misses=%d", hits, misses)
	}

	// Empty code has no program at all.
	if p := programFor(hash, nil); len(p.instrs) != 0 {
		t.Fatalf("empty code produced a program")
	}
}

// sameProgram reports whether two programs are copies of one decode: a
// cache hit hands out the instruction array it holds.
func sameProgram(a, b program) bool {
	return len(a.instrs) > 0 && len(b.instrs) > 0 && &a.instrs[0] == &b.instrs[0]
}

// TestProgramCacheEviction fills the cache past capacity and checks it both
// bounds its size and keeps serving correct programs afterwards.
func TestProgramCacheEviction(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	code := make([]byte, 4)
	for i := 0; i < progCacheCap+64; i++ {
		code[0], code[1] = 0x60, byte(i) // PUSH1 i; pad
		code[2], code[3] = byte(i>>8), 0x00
		programFor(keccak.Sum256(code), code)
	}
	if _, _, entries := DecodeCacheStats(); entries > progCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", entries, progCacheCap)
	}
	// A re-request after eviction still returns a working program.
	code[0], code[1], code[2], code[3] = 0x60, 0x00, 0x00, 0x00
	p := programFor(keccak.Sum256(code), code)
	if len(p.instrs) == 0 {
		t.Fatalf("post-eviction decode failed")
	}
}

// TestProgramCacheKeepsHotProgram: a program in use survives a stream of
// twice the cache's capacity in one-off bytecodes without being decoded
// again — the eviction is by recency, not arbitrary.
func TestProgramCacheKeepsHotProgram(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	hot := []byte{byte(PUSH1), 1, byte(STOP)}
	hotHash := keccak.Sum256(hot)
	want := programFor(hotHash, hot)
	code := []byte{byte(PUSH2), 0, 0, byte(STOP)}
	for i := 0; i < 2*progCacheCap; i++ {
		code[1], code[2] = byte(i>>8), byte(i)
		programFor(keccak.Sum256(code), code)
		if i%(progCacheCap/4) == 0 && !sameProgram(programFor(hotHash, hot), want) {
			t.Fatalf("hot program decoded again after %d one-off codes", i+1)
		}
	}
	hits, misses, entries := DecodeCacheStats()
	if misses != 1+2*progCacheCap || hits != 8 || entries != progCacheCap {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want 8/%d/%d", hits, misses, entries, 1+2*progCacheCap, progCacheCap)
	}
}

// TestDecodeLayoutCeilings pins the decoder's memory shape: a 24-byte instr,
// at most two allocations per bytecode (jump table, instruction stream;
// the program itself is a value) plus one side table when some pushed word
// is not a small word,
// and the bytes under the jump table's 4 per code byte, 24 per instruction
// and 32 per side-table word. The two-pass decoder this replaced spent about
// 130 bytes per instruction beyond the jump table.
func TestDecodeLayoutCeilings(t *testing.T) {
	if size := unsafe.Sizeof(instr{}); size != 24 {
		t.Errorf("instr is %d bytes, want 24", size)
	}

	// 300 × PUSH32 and a STOP: 9,901 bytes, 301 instructions.
	var push32 []byte
	for i := 0; i < 300; i++ {
		push32 = append(push32, byte(PUSH32))
		push32 = append(push32, make([]byte, 32)...)
	}
	push32 = append(push32, byte(STOP))
	// A dispatcher and function bodies: narrow pushes, 120 of them past
	// the small words.
	var typical []byte
	for i := 0; i < 60; i++ {
		typical = append(typical, byte(DUP1), byte(PUSH4), 0xde, 0xad, byte(i), 0xef,
			byte(EQ), byte(PUSH2), 0x01, byte(i), byte(JUMPI))
	}
	for i := 0; i < 60; i++ {
		typical = append(typical, byte(JUMPDEST), byte(PUSH1), 0, byte(SLOAD), byte(PUSH1), 1,
			byte(ADD), byte(PUSH1), 0, byte(SSTORE), byte(CALLER), 0x90, byte(POP), byte(STOP))
	}

	for _, tc := range []struct {
		name  string
		code  []byte
		words int
	}{
		{"push32-heavy", push32, 300},
		{"typical", typical, 120},
		{"empty", nil, 0},
		{"truncated-push", []byte{byte(PUSH1), 1, byte(PUSH32), 0xaa}, 1},
	} {
		code := tc.code
		if got := len(decode(code).words); got != tc.words {
			t.Errorf("%s: %d side-table words, want %d", tc.name, got, tc.words)
		}
		allocs := 2.0
		if tc.words > 0 {
			allocs++
		}
		if got := testing.AllocsPerRun(20, func() { decode(code) }); got > allocs {
			t.Errorf("%s: %v allocs/run, want at most %v", tc.name, got, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode(code)
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		// Size classes round an allocation up by at most an eighth, and
		// empty code is allowed a few bytes of nothing.
		n := InstrCount(code)
		if limit := uint64(4*len(code)+24*n+32*tc.words)*9/8 + 128; perRun > limit {
			t.Errorf("%s: %d bytes for %d code bytes, %d instructions and %d words, want at most %d",
				tc.name, perRun, len(code), n, tc.words, limit)
		}
	}
}
