package evm

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// TestDecodeFusionPatterns pins which source sequences fuse, into which
// kind, and with which folded requirements.
func TestDecodeFusionPatterns(t *testing.T) {
	cases := []struct {
		name  string
		code  []byte
		kind  uint16
		steps uint8
		need  uint16
		peak  int16
		gas   uint16
	}{
		// PUSH4 sel; EQ; PUSH1 dest; JUMPI: entry needs the duplicated
		// selector on the stack; mid-sequence depth peaks one above entry.
		{"dispatch", []byte{0x63, 0xaa, 0xbb, 0xcc, 0xdd, 0x14, 0x60, 0x08, 0x57, 0x5b},
			kindDispatch, 4, 1, 1, 19},
		{"push-jump", []byte{0x60, 0x03, 0x56, 0x5b}, kindPushJump, 2, 0, 1, 11},
		{"push-jumpi", []byte{0x60, 0x04, 0x57, 0x00, 0x5b}, kindPushJumpI, 2, 1, 1, 13},
		{"dup1-push-jumpi", []byte{0x80, 0x60, 0x05, 0x57, 0x00, 0x5b}, kindDupPushJumpI, 3, 1, 2, 16},
		{"swap1-pop", []byte{0x90, 0x50}, kindSwapPop, 2, 2, 0, 5},
		{"swap16-pop", []byte{0x9f, 0x50}, kindSwapPop, 2, 17, 0, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := decode(tc.code, true)
			in := p.instrs[0]
			if in.kind != tc.kind {
				t.Fatalf("kind=%#x, want %#x", in.kind, tc.kind)
			}
			if in.steps != tc.steps {
				t.Errorf("steps=%d, want %d", in.steps, tc.steps)
			}
			if in.need != tc.need {
				t.Errorf("need=%d, want %d", in.need, tc.need)
			}
			if in.peak != tc.peak {
				t.Errorf("peak=%d, want %d", in.peak, tc.peak)
			}
			if in.gas != tc.gas {
				t.Errorf("gas=%d, want %d", in.gas, tc.gas)
			}

			// The same code decoded unfused must contain only plain kinds.
			for i, in := range decode(tc.code, false).instrs {
				if in.kind >= fusedKindBase {
					t.Errorf("unfused decode produced fused kind %#x at %d", in.kind, i)
				}
			}
		})
	}
}

// TestDecodeFusionDeclined pins sequences that look fusable but must not
// fuse into the named kind (inner sub-patterns may still fuse on their own:
// a declined dispatcher's PUSH32; JUMPI tail fuses as kindPushJumpI, which
// needs no uint64 dest because the replay re-pushes imm directly).
func TestDecodeFusionDeclined(t *testing.T) {
	cases := []struct {
		name   string
		code   []byte
		forbid []uint16
	}{
		// Dest immediate wider than uint64: never a valid jump target, and
		// the dispatch fallback could not re-push it from destPc.
		{"dispatch-wide-dest", append(append([]byte{0x63, 1, 2, 3, 4, 0x14, 0x7f, 0xff},
			make([]byte, 31)...), 0x57),
			[]uint16{kindDispatch}},
		{"dup-wide-dest", append(append([]byte{0x80, 0x7f, 0xff},
			make([]byte, 31)...), 0x57),
			[]uint16{kindDupPushJumpI}},
		// Truncated trailing PUSH: PUSHn is the last instruction, nothing to
		// fuse with.
		{"trailing-push", []byte{0x60},
			[]uint16{kindPushJump, kindPushJumpI, kindDispatch, kindDupPushJumpI, kindSwapPop}},
		// SWAP followed by something other than POP.
		{"swap-no-pop", []byte{0x90, 0x01},
			[]uint16{kindPushJump, kindPushJumpI, kindDispatch, kindDupPushJumpI, kindSwapPop}},
		// JUMPDEST between components breaks the pattern window.
		{"jumpdest-mid", []byte{0x60, 0x03, 0x5b, 0x56},
			[]uint16{kindPushJump, kindPushJumpI, kindDispatch, kindDupPushJumpI, kindSwapPop}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, in := range decode(tc.code, true).instrs {
				for _, k := range tc.forbid {
					if in.kind == k {
						t.Fatalf("fused kind %#x emitted for %x", in.kind, tc.code)
					}
				}
			}
		})
	}
}

// TestDecodeJumpIndex pins jumpIdx: JUMPDEST pcs map to their instruction
// index, everything else (including a 0x5b byte inside push data) is -1.
func TestDecodeJumpIndex(t *testing.T) {
	// PUSH2 0x5b5b (push data mimics JUMPDEST); JUMPDEST; STOP
	code := []byte{0x61, 0x5b, 0x5b, 0x5b, 0x00}
	p := decode(code, false)
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

	// Fused decode resolves the constant dest at decode time.
	fused := decode([]byte{0x60, 0x03, 0x56, 0x5b}, true)
	if in := fused.instrs[0]; in.kind != kindPushJump || in.dest < 0 ||
		fused.instrs[in.dest].op != JUMPDEST {
		t.Fatalf("fused push-jump dest not resolved: %+v", fused.instrs[0])
	}
	bad := decode([]byte{0x60, 0x00, 0x56, 0x5b}, true)
	if in := bad.instrs[0]; in.dest != -1 {
		t.Fatalf("jump to non-JUMPDEST resolved to %d, want -1", in.dest)
	}
}

// TestDecodeTruncatedPush pins the pad-with-trailing-zeros immediate of a
// PUSH cut off by end of code, matching the reference loop's semantics.
func TestDecodeTruncatedPush(t *testing.T) {
	// PUSH32 with only one data byte: value is 0x01 followed by 31 zeros.
	p := decode([]byte{0x7f, 0x01}, false)
	if len(p.instrs) != 1 || p.instrs[0].kind != kindPush {
		t.Fatalf("decoded %d instrs, want one push", len(p.instrs))
	}
	var want [32]byte
	want[0] = 0x01
	if got := p.word(p.instrs[0].imm); !got.Eq(u256.FromBytes32(want)) {
		t.Fatalf("truncated push32 imm=%s, want 0x01 zero-padded", got.Hex())
	}

	// PUSH1 with no data at all: immediate is zero.
	p = decode([]byte{0x60}, false)
	if got := p.word(p.instrs[0].imm); !got.Eq(u256.Zero()) {
		t.Fatalf("dataless push1 imm=%s, want 0", got.Hex())
	}
}

// TestProgramCache pins the cache contract: per-(hash, fused) memoization,
// zero hashes bypass it, and the stats counters track hits and misses.
func TestProgramCache(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	code := []byte{0x60, 0x01, 0x60, 0x02, 0x01, 0x00}
	hash := keccak.Sum256(code)

	p1 := programFor(hash, code, true)
	p2 := programFor(hash, code, true)
	if !sameProgram(p1, p2) {
		t.Fatalf("same (hash, fused) key returned distinct programs")
	}
	if pu := programFor(hash, code, false); sameProgram(pu, p1) || !p1.fused || pu.fused {
		t.Fatalf("fused and unfused programs must be cached separately")
	}
	if hits, misses, entries := DecodeCacheStats(); hits != 1 || misses != 2 || entries != 2 {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want 1/2/2", hits, misses, entries)
	}

	// Zero hash bypasses the cache: fresh program, no counter movement.
	z1 := programFor(etypes.Hash{}, code, true)
	z2 := programFor(etypes.Hash{}, code, true)
	if sameProgram(z1, z2) {
		t.Fatalf("zero-hash decodes must not be cached")
	}
	if hits, misses, _ := DecodeCacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("zero-hash decode moved cache counters: hits=%d misses=%d", hits, misses)
	}

	// Empty code has no program at all.
	if p := programFor(hash, nil, true); len(p.instrs) != 0 {
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
		programFor(keccak.Sum256(code), code, true)
	}
	if _, _, entries := DecodeCacheStats(); entries > progCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", entries, progCacheCap)
	}
	// A re-request after eviction still returns a working program.
	code[0], code[1], code[2], code[3] = 0x60, 0x00, 0x00, 0x00
	p := programFor(keccak.Sum256(code), code, true)
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
	want := programFor(hotHash, hot, true)
	code := []byte{byte(PUSH2), 0, 0, byte(STOP)}
	for i := 0; i < 2*progCacheCap; i++ {
		code[1], code[2] = byte(i>>8), byte(i)
		programFor(keccak.Sum256(code), code, true)
		if i%(progCacheCap/4) == 0 && !sameProgram(programFor(hotHash, hot, true), want) {
			t.Fatalf("hot program decoded again after %d one-off codes", i+1)
		}
	}
	hits, misses, entries := DecodeCacheStats()
	if misses != 1+2*progCacheCap || hits != 8 || entries != progCacheCap {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want 8/%d/%d", hits, misses, entries, 1+2*progCacheCap, progCacheCap)
	}
}

// TestDecodeLayoutCeilings pins the decoder's memory shape: a 32-byte instr,
// at most two allocations per bytecode (jump table, instruction stream;
// the program itself is a value) plus one side table when some pushed word
// is not a small word,
// and the bytes under the jump table's 4 per code byte, 32 per instruction
// and 32 per side-table word. The two-pass decoder this replaced spent about
// 130 bytes per instruction beyond the jump table.
func TestDecodeLayoutCeilings(t *testing.T) {
	if size := unsafe.Sizeof(instr{}); size > 32 {
		t.Errorf("instr is %d bytes, want at most 32", size)
	}

	// 300 × PUSH32 and a STOP: 9,901 bytes, 301 instructions.
	var push32 []byte
	for i := 0; i < 300; i++ {
		push32 = append(push32, byte(PUSH32))
		push32 = append(push32, make([]byte, 32)...)
	}
	push32 = append(push32, byte(STOP))
	// A dispatcher and function bodies: narrow pushes, fused and plain.
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
		fuse  bool
		words int
	}{
		{"push32-heavy", push32, true, 300},
		{"typical", typical, true, 0},
		{"typical-unfused", typical, false, 120},
		{"empty", nil, true, 0},
		{"truncated-push", []byte{byte(PUSH1), 1, byte(PUSH32), 0xaa}, true, 1},
	} {
		code, fuse := tc.code, tc.fuse
		if got := len(decode(code, fuse).words); got != tc.words {
			t.Errorf("%s: %d side-table words, want %d", tc.name, got, tc.words)
		}
		allocs := 2.0
		if tc.words > 0 {
			allocs++
		}
		if got := testing.AllocsPerRun(20, func() { decode(code, fuse) }); got > allocs {
			t.Errorf("%s: %v allocs/run, want at most %v", tc.name, got, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode(code, fuse)
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		// Size classes round an allocation up by at most an eighth, and
		// empty code is allowed a few bytes of nothing.
		n := InstrCount(code)
		if limit := uint64(4*len(code)+32*n+32*tc.words)*9/8 + 128; perRun > limit {
			t.Errorf("%s: %d bytes for %d code bytes, %d instructions and %d words, want at most %d",
				tc.name, perRun, len(code), n, tc.words, limit)
		}
	}
}
