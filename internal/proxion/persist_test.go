package proxion

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/solc"
)

// goldenEntry is a fixed cache entry exercising every field: two guard
// slots in semantic (non-sorted) order, a forwarded storage verdict, a
// non-forwarded verdict with an emulation error, and an empty-reason
// verdict.
func goldenEntry() CacheEntry {
	h := func(b byte) (out etypes.Hash) { out[0] = b; out[31] = b ^ 0xff; return }
	a := func(b byte) (out etypes.Address) { out[0] = b; out[19] = b + 1; return }
	return CacheEntry{
		CodeHash:   h(0x11),
		FirstAddr:  a(0x22),
		GuardSlots: []etypes.Hash{h(0xb0), h(0xa0)}, // deliberately not sorted
		Verdicts: []CachedVerdict{
			{
				Fingerprint:  h(0x02),
				Forwarded:    false,
				Target:       TargetUnknown,
				EmulationErr: "evm: out of gas",
				Reason:       "emulation aborted: evm: out of gas",
			},
			{
				Fingerprint: h(0x01),
				Forwarded:   true,
				Target:      TargetStorage,
				ImplSlot:    h(0xc0),
				Logic:       a(0x33),
				Reason:      "fallback forwarded the probe call data via DELEGATECALL to " + a(0x33).Hex(),
			},
		},
	}
}

// TestCacheEntryGoldenRoundTrip pins the binary encoding byte-for-byte:
// the golden hex below must never change without bumping
// cacheEntryVersion, or persisted stores would silently misdecode.
func TestCacheEntryGoldenRoundTrip(t *testing.T) {
	e := goldenEntry()
	enc, err := e.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	const golden = "0111000000000000000000000000000000000000000000000000000000000000" +
		"ee220000000000000000000000000000000000002300000002b0000000000000" +
		"0000000000000000000000000000000000000000000000004fa0000000000000" +
		"0000000000000000000000000000000000000000000000005f00000002010000" +
		"00000000000000000000000000000000000000000000000000000000fe0102c0" +
		"0000000000000000000000000000000000000000000000000000000000003f33" +
		"00000000000000000000000000000000000034000000000000006566616c6c62" +
		"61636b20666f72776172646564207468652070726f62652063616c6c20646174" +
		"61207669612044454c454741544543414c4c20746f2030783333303030303030" +
		"3030303030303030303030303030303030303030303030303030303030303334" +
		"02000000000000000000000000000000000000000000000000000000000000fd" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000f65766d3a206f" +
		"7574206f662067617300000022656d756c6174696f6e2061626f727465643a20" +
		"65766d3a206f7574206f6620676173"
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("encoding drifted from golden without a version bump:\n got:  %s\n want: %s", got, golden)
	}

	// Byte-stability: marshaling twice, and marshaling with the verdicts
	// pre-sorted differently, must give identical bytes.
	enc2, _ := e.MarshalBinary()
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("MarshalBinary is not deterministic")
	}
	swapped := e
	swapped.Verdicts = []CachedVerdict{e.Verdicts[1], e.Verdicts[0]}
	enc3, _ := swapped.MarshalBinary()
	if !bytes.Equal(enc, enc3) {
		t.Fatalf("MarshalBinary depends on verdict order:\n a=%s\n b=%s",
			hex.EncodeToString(enc), hex.EncodeToString(enc3))
	}

	var dec CacheEntry
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	// After decoding, verdicts are in fingerprint order; re-marshaling
	// must reproduce the exact bytes (the store's skip-identical-put
	// optimization depends on this).
	reenc, err := dec.MarshalBinary()
	if err != nil {
		t.Fatalf("re-MarshalBinary: %v", err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatalf("round trip not byte-stable:\n a=%s\n b=%s",
			hex.EncodeToString(enc), hex.EncodeToString(reenc))
	}

	// Field-level round trip (guard slot order preserved verbatim).
	if dec.CodeHash != e.CodeHash || dec.FirstAddr != e.FirstAddr {
		t.Fatalf("identity fields did not round-trip")
	}
	if len(dec.GuardSlots) != 2 || dec.GuardSlots[0] != e.GuardSlots[0] || dec.GuardSlots[1] != e.GuardSlots[1] {
		t.Fatalf("guard slots reordered or lost: %v", dec.GuardSlots)
	}
	if len(dec.Verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(dec.Verdicts))
	}
	// Sorted by fingerprint: h(0x01) first.
	if !dec.Verdicts[0].Forwarded || dec.Verdicts[0].Target != TargetStorage {
		t.Fatalf("forwarded verdict did not round-trip: %+v", dec.Verdicts[0])
	}
	if dec.Verdicts[1].EmulationErr != "evm: out of gas" {
		t.Fatalf("emulation error did not round-trip: %+v", dec.Verdicts[1])
	}

	t.Run("recorded by emulation and by promotion", checkRecordedEntriesGolden)
}

// TestCacheEntryUnmarshalRejectsCorruption exercises the decoder's error
// paths: truncation at every prefix must error, never panic, and trailing
// garbage is rejected.
func TestCacheEntryUnmarshalRejectsCorruption(t *testing.T) {
	enc, err := goldenEntry().MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	for n := 0; n < len(enc); n++ {
		var dec CacheEntry
		if err := dec.UnmarshalBinary(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	var dec CacheEntry
	if err := dec.UnmarshalBinary(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Fatalf("trailing garbage decoded without error")
	}
	bad := append([]byte{}, enc...)
	bad[0] = cacheEntryVersion + 1
	if err := dec.UnmarshalBinary(bad); err == nil {
		t.Fatalf("wrong version decoded without error")
	}
}

// TestExportImportParity runs the detector over a duplicated-bytecode
// chain, exports the cache, imports it into a fresh detector over the same
// chain, and requires (1) identical verdicts and (2) zero fresh
// emulations on the warm side — the property the persistent store exists
// to provide.
func TestExportImportParity(t *testing.T) {
	ch := chain.New()
	logic := etypes.MustAddress("0x00000000000000000000000000000000000000aa")
	ch.InstallContract(logic, []byte{0x60, 0x00, 0x60, 0x00, 0xf3}) // trivial stop-ish logic
	// Two byte-identical EIP-1167 clones of the same logic.
	clone := minimalProxyCode(logic)
	p1 := etypes.MustAddress("0x0000000000000000000000000000000000000b01")
	p2 := etypes.MustAddress("0x0000000000000000000000000000000000000b02")
	ch.InstallContract(p1, clone)
	ch.InstallContract(p2, clone)

	cold := NewDetector(ch)
	var coldReps []Report
	for _, a := range []etypes.Address{p1, p2} {
		coldReps = append(coldReps, withStream(t, cold, a))
	}
	entries := cold.ExportVerdicts()
	if len(entries) == 0 {
		t.Fatalf("no exportable entries after a proxy analysis")
	}

	// Round-trip through bytes, as the store would.
	var rt []CacheEntry
	for _, e := range entries {
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		var dec CacheEntry
		if err := dec.UnmarshalBinary(b); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		rt = append(rt, dec)
	}

	warm := NewDetector(ch)
	if n := warm.ImportVerdicts(rt); n != len(rt) {
		t.Fatalf("imported %d of %d entries", n, len(rt))
	}
	// Importing again is a no-op: live entries win.
	if n := warm.ImportVerdicts(rt); n != 0 {
		t.Fatalf("re-import clobbered %d live entries", n)
	}

	for i, a := range []etypes.Address{p1, p2} {
		warmRep := withStream(t, warm, a)
		if cold, warm := reportString(coldReps[i]), reportString(warmRep); cold != warm {
			t.Fatalf("verdict for %v differs cold vs warm:\n cold: %s\n warm: %s", a, cold, warm)
		}
	}

	t.Run("store entries re-export identically", checkImportedEntriesReexport)
}

// recordedEntryAddrs are the four bytecodes recordedEntries analyzes, in
// order: a storage proxy and an EIP-1167 stamp recorded by emulation (each
// its family's leader), then a slot twin and a stamp recorded by promotion.
var recordedEntryAddrs = []struct {
	name string
	addr etypes.Address
}{
	{"emulated storage proxy", structAddr(0x11)},
	{"emulated stamp", structAddr(0x21)},
	{"promoted slot twin", structAddr(0x12)},
	{"promoted stamp", structAddr(0x22)},
}

// recordedEntries installs recordedEntryAddrs' contracts, analyzes them in
// order on a fresh detector and returns the chain, the detector and each
// exported entry, encoded.
func recordedEntries(t *testing.T) (*chain.Chain, *Detector, [][]byte) {
	t.Helper()
	c := chain.New()
	logic := structAddr(0x01)
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	for i, slot := range []etypes.Hash{etypes.Keccak([]byte("golden.slot")), etypes.Keccak([]byte("golden.twin"))} {
		a := recordedEntryAddrs[2*i].addr
		c.InstallContract(a, solc.MustCompile(&solc.Contract{
			Name: "P", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}}))
		c.SetStorageDirect(a, slot, etypes.HashFromWord(logic.Word()))
		c.InstallContract(recordedEntryAddrs[2*i+1].addr, disasm.MinimalProxyRuntime(structAddr(byte(0x02+i))))
	}
	d := NewDetector(c)
	var stats pipeline.Stats
	var out [][]byte
	for _, e := range recordedEntryAddrs {
		d.AnalyzeAddress(e.addr, nil, AnalyzeOptions{Stats: &stats})
		ent, ok := d.ExportVerdict(e.addr)
		if !ok {
			t.Fatalf("%s: nothing exported", e.name)
		}
		b, err := ent.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	if stats.Emulations.Load() != 2 || stats.StructuralHits.Load() != 2 {
		t.Fatalf("test setup: %d emulations and %d promotions, want 2 and 2", stats.Emulations.Load(), stats.StructuralHits.Load())
	}
	return c, d, out
}

// recordedGolden are recordedEntries' encodings. A forwarding verdict
// stores no Reason, so these pin that export rebuilds it to the bytes
// stores already hold; otherwise every restart would re-append every entry.
var recordedGolden = []string{
	// emulated storage proxy
	"015d5e4de9916145d3fa20da7a387d274877d5a0268e9df5a3bc2548b608fb82" +
		"bb0000000000000000000000000000000000007a110000000000000001000000" +
		"00000000000000000000000000000000000000000000000000000000000102e1" +
		"0739edd5c9fabb3ae51fe2ddeb4a9f71662cd3dcf84847898578aa5b1029e000" +
		"00000000000000000000000000000000007a01000000000000006566616c6c62" +
		"61636b20666f72776172646564207468652070726f62652063616c6c20646174" +
		"61207669612044454c454741544543414c4c20746f2030783030303030303030" +
		"3030303030303030303030303030303030303030303030303030303037613031",
	// emulated stamp
	"016061fa72ae28905d0c738dc76abe33d5384f31ea11dcacb8cb80a1a73aff4d" +
		"fa0000000000000000000000000000000000007a210000000000000001000000" +
		"0000000000000000000000000000000000000000000000000000000000010100" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000000000000000007a02000000000000006566616c6c62" +
		"61636b20666f72776172646564207468652070726f62652063616c6c20646174" +
		"61207669612044454c454741544543414c4c20746f2030783030303030303030" +
		"3030303030303030303030303030303030303030303030303030303037613032",
	// promoted slot twin
	"013eab7666f6835c4a99aea88885667e280d15404acbcf751d9b32ffb186993b" +
		"4d0000000000000000000000000000000000007a120000000000000001000000" +
		"0000000000000000000000000000000000000000000000000000000000010215" +
		"21817202fab1b80bbff12ec7299105472e8e1cdc976b8991d5f2af4267c6e700" +
		"00000000000000000000000000000000007a01000000000000006566616c6c62" +
		"61636b20666f72776172646564207468652070726f62652063616c6c20646174" +
		"61207669612044454c454741544543414c4c20746f2030783030303030303030" +
		"3030303030303030303030303030303030303030303030303030303037613031",
	// promoted stamp
	"0184ac058309f9a4c7b383a401ce6e1592d2dc50cfecba19021318bb3b9cacc8" +
		"8e0000000000000000000000000000000000007a220000000000000001000000" +
		"0000000000000000000000000000000000000000000000000000000000010100" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000000000000000007a03000000000000006566616c6c62" +
		"61636b20666f72776172646564207468652070726f62652063616c6c20646174" +
		"61207669612044454c454741544543414c4c20746f2030783030303030303030" +
		"3030303030303030303030303030303030303030303030303030303037613033",
}

// checkRecordedEntriesGolden: the entries the detector records, by emulation
// and by promotion, export to the bytes pinned above.
func checkRecordedEntriesGolden(t *testing.T) {
	_, _, enc := recordedEntries(t)
	for i, b := range enc {
		if got := hex.EncodeToString(b); got != recordedGolden[i] {
			t.Errorf("%s: exported\n got:  %s\n want: %s", recordedEntryAddrs[i].name, got, recordedGolden[i])
		}
	}
}

// checkImportedEntriesReexport: entries read back from a store re-export the
// bytes they were read from, so a restarted service's store.Put skips every
// one of them, and serve the same reports.
func checkImportedEntriesReexport(t *testing.T) {
	c, cold, _ := recordedEntries(t)
	var entries []CacheEntry
	for i, h := range recordedGolden {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		var e CacheEntry
		if err := e.UnmarshalBinary(b); err != nil {
			t.Fatalf("%s: %v", recordedEntryAddrs[i].name, err)
		}
		entries = append(entries, e)
	}
	warm := NewDetector(c)
	if n := warm.ImportVerdicts(entries); n != len(entries) {
		t.Fatalf("imported %d of %d entries", n, len(entries))
	}
	for i, e := range recordedEntryAddrs {
		ent, ok := warm.ExportVerdict(e.addr)
		if !ok {
			t.Fatalf("%s: imported entry not exported", e.name)
		}
		b, err := ent.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != recordedGolden[i] {
			t.Errorf("%s: re-exported\n got:  %s\n want: %s", e.name, got, recordedGolden[i])
		}
	}
	var stats pipeline.Stats
	for _, e := range recordedEntryAddrs {
		got := warm.AnalyzeAddress(e.addr, nil, AnalyzeOptions{Stats: &stats})
		want := cold.AnalyzeAddress(e.addr, nil, AnalyzeOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm item %+v, cold %+v", e.name, got, want)
		}
	}
	if n := stats.Emulations.Load() + stats.StructuralHits.Load(); n != 0 {
		t.Errorf("the warm detector emulated or promoted %d times, want every answer an exact hit", n)
	}
}

// withStream analyzes one address through the streaming engine (the code
// path the service uses) and returns its report, failing the test on a
// missing emission.
func withStream(t *testing.T, d *Detector, addr etypes.Address) Report {
	t.Helper()
	var got *Report
	snap := d.AnalyzeStream(SliceSource([]etypes.Address{addr}), nil,
		SinkFunc(func(it Item) { r := it.Report; got = &r }), AnalyzeOptions{})
	if got == nil || snap == nil {
		t.Fatalf("no item emitted for %v", addr)
	}
	return *got
}

// reportString renders the observable verdict fields for comparison.
func reportString(r Report) string {
	errStr := func(e error) string {
		if e == nil {
			return "<nil>"
		}
		return e.Error()
	}
	return r.Address.Hex() + "|" + boolStr(r.IsProxy) + "|" + r.Logic.Hex() + "|" +
		r.Target.String() + "|" + r.ImplSlot.Hex() + "|" + r.Standard.String() + "|" +
		boolStr(r.HasDelegateCall) + "|" + errStr(r.EmulationErr) + "|" + r.Reason
}

func boolStr(b bool) string {
	if b {
		return "t"
	}
	return "f"
}

// minimalProxyCode builds the canonical EIP-1167 runtime for a target.
func minimalProxyCode(target etypes.Address) []byte {
	code := []byte{
		0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73,
	}
	code = append(code, target[:]...)
	code = append(code,
		0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3)
	return code
}

// TestImportedErrorRehydration pins that a persisted emulation error
// reproduces its text through the error interface.
func TestImportedErrorRehydration(t *testing.T) {
	var e error = persistedError("evm: stack underflow")
	if e.Error() != "evm: stack underflow" {
		t.Fatalf("persistedError text mismatch: %q", e.Error())
	}
	var target persistedError
	if !errors.As(e, &target) {
		t.Fatalf("errors.As failed on persistedError")
	}
}

// refUnmarshalEntry is UnmarshalBinary as first written, one closure per
// field kind and an error check per read, kept as the oracle of the
// sticky-error decoder.
func refUnmarshalEntry(e *CacheEntry, data []byte) error {
	r := bytes.NewReader(data)
	readByte := func() (byte, error) { return r.ReadByte() }

	v, err := readByte()
	if err != nil {
		return fmt.Errorf("proxion: cache entry truncated")
	}
	if v != cacheEntryVersion {
		return fmt.Errorf("proxion: cache entry version %d, want %d", v, cacheEntryVersion)
	}
	need := func(p []byte) error {
		n, err := r.Read(p)
		if err != nil || n != len(p) {
			return fmt.Errorf("proxion: cache entry truncated")
		}
		return nil
	}
	readU32 := func() (int, error) {
		var u [4]byte
		if err := need(u[:]); err != nil {
			return 0, err
		}
		n := int(binary.BigEndian.Uint32(u[:]))
		if n < 0 || n > maxCacheEntrySlices {
			return 0, fmt.Errorf("proxion: cache entry length %d out of range", n)
		}
		return n, nil
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > r.Len() {
			return "", fmt.Errorf("proxion: cache entry truncated")
		}
		p := make([]byte, n)
		if n > 0 {
			if err := need(p); err != nil {
				return "", err
			}
		}
		return string(p), nil
	}

	var out CacheEntry
	if err := need(out.CodeHash[:]); err != nil {
		return err
	}
	if err := need(out.FirstAddr[:]); err != nil {
		return err
	}
	nSlots, err := readU32()
	if err != nil {
		return err
	}
	for i := 0; i < nSlots; i++ {
		var s etypes.Hash
		if err := need(s[:]); err != nil {
			return err
		}
		out.GuardSlots = append(out.GuardSlots, s)
	}
	nVerd, err := readU32()
	if err != nil {
		return err
	}
	for i := 0; i < nVerd; i++ {
		var cv CachedVerdict
		if err := need(cv.Fingerprint[:]); err != nil {
			return err
		}
		fwd, err := readByte()
		if err != nil {
			return fmt.Errorf("proxion: cache entry truncated")
		}
		cv.Forwarded = fwd == 1
		tgt, err := readByte()
		if err != nil {
			return fmt.Errorf("proxion: cache entry truncated")
		}
		cv.Target = TargetSource(tgt)
		if err := need(cv.ImplSlot[:]); err != nil {
			return err
		}
		if err := need(cv.Logic[:]); err != nil {
			return err
		}
		if cv.EmulationErr, err = readStr(); err != nil {
			return err
		}
		if cv.Reason, err = readStr(); err != nil {
			return err
		}
		out.Verdicts = append(out.Verdicts, cv)
	}
	if r.Len() != 0 {
		return fmt.Errorf("proxion: %d trailing bytes after cache entry", r.Len())
	}
	*e = out
	return nil
}

// TestCacheEntryDecoderMatchesReference feeds both decoders every prefix of
// the golden and recorded encodings and seeded mutations of them (flipped
// bytes, inflated lengths, appended garbage): they must agree on failure
// and on every decoded entry.
func TestCacheEntryDecoderMatchesReference(t *testing.T) {
	golden, err := goldenEntry().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{golden}
	for _, h := range recordedGolden {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, b)
	}
	rng := rand.New(rand.NewSource(5))
	var cases [][]byte
	for _, in := range inputs {
		for n := 0; n <= len(in); n++ {
			cases = append(cases, in[:n])
		}
		for i := 0; i < 2000; i++ {
			m := append([]byte(nil), in...)
			switch i % 3 {
			case 0:
				m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
			case 1: // a length field's high byte: past the bound or past the data
				m[1+32+20+rng.Intn(4)] = byte(rng.Intn(256))
			case 2:
				m = append(m, byte(rng.Intn(256)))
			}
			cases = append(cases, m)
		}
	}
	for _, in := range cases {
		var got, want CacheEntry
		gotErr, wantErr := got.UnmarshalBinary(in), refUnmarshalEntry(&want, in)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("input %x: decoded %+v (err %v), reference %+v (err %v)", in, got, gotErr, want, wantErr)
		}
	}
}
