package proxion

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/etypes"
)

// This file is the persistence surface of the bytecode-dedup verdict
// cache: the exported, serializable view of one cache entry and the
// Detector hooks that export and import entries without callers reaching
// into unexported state. A long-running service snapshots entries through
// ExportVerdict as analyses complete, appends them to a disk store, and
// re-seeds a fresh detector with ImportVerdicts on restart — so verdicts
// survive process death and a warm process answers duplicate-bytecode
// queries without a single re-emulation.

// CachedVerdict is one memoized emulation outcome of a bytecode, exported:
// the verdict recorded under one guard-slot fingerprint.
type CachedVerdict struct {
	// Fingerprint is the guard-slot fingerprint the verdict was recorded
	// under (see guardFingerprint).
	Fingerprint etypes.Hash
	// Forwarded says the fallback forwarded the probe via DELEGATECALL.
	Forwarded bool
	// Target/ImplSlot/Logic locate the delegate (meaningful when Forwarded).
	Target   TargetSource
	ImplSlot etypes.Hash
	Logic    etypes.Address
	// EmulationErr is the terminal EVM error text ("" when none). Errors
	// round-trip as text: a rehydrated verdict reproduces the same Error()
	// string, which is all downstream reporting observes.
	EmulationErr string
	// Reason is the human-readable verdict justification.
	Reason string
}

// CacheEntry is the exported, serializable state of one distinct runtime
// bytecode in the verdict cache.
type CacheEntry struct {
	// CodeHash keys the entry: Keccak-256 of the runtime bytecode.
	CodeHash etypes.Hash
	// FirstAddr is the address the recording run probed.
	FirstAddr etypes.Address
	// GuardSlots are the storage slots the fallback read before forwarding,
	// in first-read order. Order is significant — the fingerprint hashes
	// slots in this order — and is preserved exactly by serialization.
	GuardSlots []etypes.Hash
	// Verdicts holds the per-fingerprint outcomes.
	Verdicts []CachedVerdict
}

// cacheEntryVersion tags the binary encoding; bump on layout change.
const cacheEntryVersion = 1

// maxCacheEntrySlices bounds slice lengths accepted by UnmarshalBinary,
// rejecting garbage lengths before allocation.
const maxCacheEntrySlices = 1 << 20

// persistedError rehydrates an emulation error from its stored text. The
// analysis layers only ever observe Error(), so a round-tripped verdict is
// indistinguishable from the original in every report.
type persistedError string

func (e persistedError) Error() string { return string(e) }

// MarshalBinary encodes the entry byte-stably: verdicts are sorted by
// fingerprint, guard slots keep their semantic order, and all integers are
// fixed-width big-endian — so two entries with equal contents marshal to
// identical bytes regardless of map iteration or recording order.
func (e CacheEntry) MarshalBinary() ([]byte, error) {
	if len(e.GuardSlots) > maxCacheEntrySlices || len(e.Verdicts) > maxCacheEntrySlices {
		return nil, fmt.Errorf("proxion: cache entry too large to encode")
	}
	vs := make([]CachedVerdict, len(e.Verdicts))
	copy(vs, e.Verdicts)
	sort.Slice(vs, func(i, j int) bool {
		return bytes.Compare(vs[i].Fingerprint[:], vs[j].Fingerprint[:]) < 0
	})

	var b bytes.Buffer
	b.WriteByte(cacheEntryVersion)
	b.Write(e.CodeHash[:])
	b.Write(e.FirstAddr[:])
	writeU32 := func(n int) {
		var u [4]byte
		binary.BigEndian.PutUint32(u[:], uint32(n))
		b.Write(u[:])
	}
	writeStr := func(s string) {
		writeU32(len(s))
		b.WriteString(s)
	}
	writeU32(len(e.GuardSlots))
	for _, s := range e.GuardSlots {
		b.Write(s[:])
	}
	writeU32(len(vs))
	for _, v := range vs {
		b.Write(v.Fingerprint[:])
		if v.Forwarded {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		b.WriteByte(byte(v.Target))
		b.Write(v.ImplSlot[:])
		b.Write(v.Logic[:])
		writeStr(v.EmulationErr)
		writeStr(v.Reason)
	}
	return b.Bytes(), nil
}

// UnmarshalBinary decodes an entry encoded by MarshalBinary, validating
// the version tag and every length before use.
func (e *CacheEntry) UnmarshalBinary(data []byte) error {
	d := entryDecoder{rest: data}
	if v := d.byte(); d.err == nil && v != cacheEntryVersion {
		return fmt.Errorf("proxion: cache entry version %d, want %d", v, cacheEntryVersion)
	}
	var out CacheEntry
	d.read(out.CodeHash[:])
	d.read(out.FirstAddr[:])
	for i, n := 0, d.len(); i < n && d.err == nil; i++ {
		var s etypes.Hash
		d.read(s[:])
		out.GuardSlots = append(out.GuardSlots, s)
	}
	for i, n := 0, d.len(); i < n && d.err == nil; i++ {
		var cv CachedVerdict
		d.read(cv.Fingerprint[:])
		cv.Forwarded = d.byte() == 1
		cv.Target = TargetSource(d.byte())
		d.read(cv.ImplSlot[:])
		d.read(cv.Logic[:])
		cv.EmulationErr = d.str()
		cv.Reason = d.str()
		out.Verdicts = append(out.Verdicts, cv)
	}
	if d.err == nil && len(d.rest) != 0 {
		d.err = fmt.Errorf("proxion: %d trailing bytes after cache entry", len(d.rest))
	}
	if d.err != nil {
		return d.err
	}
	*e = out
	return nil
}

// entryDecoder reads MarshalBinary's layout off rest; its first failure
// sticks, and every later read returns zero values.
type entryDecoder struct {
	rest []byte
	err  error
}

// next consumes n bytes, or fails the decode when fewer are left.
func (d *entryDecoder) next(n int) []byte {
	if d.err == nil && n > len(d.rest) {
		d.err = fmt.Errorf("proxion: cache entry truncated")
	}
	if d.err != nil {
		return nil
	}
	p := d.rest[:n]
	d.rest = d.rest[n:]
	return p
}

func (d *entryDecoder) read(p []byte) { copy(p, d.next(len(p))) }

func (d *entryDecoder) byte() byte {
	var b [1]byte
	d.read(b[:])
	return b[0]
}

// len reads a big-endian u32 length, refusing one past maxCacheEntrySlices.
func (d *entryDecoder) len() int {
	var u [4]byte
	d.read(u[:])
	n := int(binary.BigEndian.Uint32(u[:]))
	if d.err == nil && n > maxCacheEntrySlices {
		d.err = fmt.Errorf("proxion: cache entry length %d out of range", n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *entryDecoder) str() string { return string(d.next(d.len())) }

// ExportVerdict snapshots the cache entry of the runtime bytecode now at
// addr. It returns ok=false when the code hash cannot be read or is unknown,
// still recording, or poisoned (a recording run that died in a read failure
// — such entries transfer no verdicts and are not worth persisting). Call
// only after the analysis that touched the bytecode has returned its item;
// the call synchronizes with the recording goroutine through the entry's
// once.
func (d *Detector) ExportVerdict(addr etypes.Address) (ent CacheEntry, ok bool) {
	chain.CaptureReadError(func() { ent, ok = d.exportVerdict(d.chain.CodeHash(addr)) })
	return ent, ok
}

func (d *Detector) exportVerdict(codeHash etypes.Hash) (CacheEntry, bool) {
	if art, ok := d.artifacts.Peek(codeHash); ok {
		if e := art.verdict.Load(); e != nil {
			return exportEntry(codeHash, e)
		}
	}
	return CacheEntry{}, false
}

// ExportVerdicts snapshots every exportable cache entry, sorted by code
// hash for deterministic output. Intended for quiescent detectors (after a
// run has drained); see ExportVerdict for the synchronization contract.
func (d *Detector) ExportVerdicts() []CacheEntry {
	hashes := d.artifacts.Keys()
	sort.Slice(hashes, func(i, j int) bool {
		return bytes.Compare(hashes[i][:], hashes[j][:]) < 0
	})
	var out []CacheEntry
	for _, h := range hashes {
		if e, ok := d.exportVerdict(h); ok {
			out = append(out, e)
		}
	}
	return out
}

// exportEntry renders one recorded codeVerdict as its exported form, with
// a forwarding verdict's Reason rebuilt from its logic, as it was recorded.
func exportEntry(codeHash etypes.Hash, e *codeVerdict) (CacheEntry, bool) {
	// Synchronize with the recording run. If the entry was created but
	// never recorded, this consumes the once and the entry reads as
	// poisoned — harmless at the quiescent points this API is for.
	e.once.Do(func() {})
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.recorded {
		return CacheEntry{}, false
	}
	out := CacheEntry{
		CodeHash:   codeHash,
		FirstAddr:  e.firstAddr,
		GuardSlots: append([]etypes.Hash(nil), e.guardSlots...),
	}
	emit := func(fp etypes.Hash, v probeVerdict) {
		cv := CachedVerdict{
			Fingerprint: fp,
			Forwarded:   v.forwarded,
			Target:      v.target,
			ImplSlot:    v.implSlot,
			Logic:       v.logic,
			Reason:      v.reason,
		}
		if v.forwarded {
			cv.Reason = forwardedReason(v.logic)
		}
		if v.emulationErr != nil {
			cv.EmulationErr = v.emulationErr.Error()
		}
		out.Verdicts = append(out.Verdicts, cv)
	}
	emit(e.fp, e.first)
	for fp, v := range e.more {
		emit(fp, v)
	}
	sort.Slice(out.Verdicts, func(i, j int) bool {
		return bytes.Compare(out.Verdicts[i].Fingerprint[:], out.Verdicts[j].Fingerprint[:]) < 0
	})
	return out, true
}

// ImportVerdicts pre-seeds the verdict cache with previously exported
// entries, returning how many were installed. An entry whose code hash
// already holds a verdict is skipped — live state wins over persisted state
// — so importing is safe at any point, though it is normally done once,
// before the first analysis. Imported entries participate in the LRU
// exactly like recorded ones.
func (d *Detector) ImportVerdicts(entries []CacheEntry) int {
	installed := 0
	for _, ent := range entries {
		if len(ent.Verdicts) == 0 {
			continue // nothing to serve: as good as absent
		}
		cv := new(codeVerdict)
		cv.once.Do(func() { cv.firstAddr, cv.guardSlots = ent.FirstAddr, append([]etypes.Hash(nil), ent.GuardSlots...) })
		for _, v := range ent.Verdicts {
			pv := verdictOf(Report{IsProxy: v.Forwarded, Target: v.Target, ImplSlot: v.ImplSlot, Logic: v.Logic, Reason: v.Reason})
			if v.EmulationErr != "" {
				pv.emulationErr = persistedError(v.EmulationErr)
			}
			cv.add(v.Fingerprint, pv)
		}
		// An existing verdict wins: live state is never clobbered by a
		// (possibly stale) persisted one.
		if d.artifacts.of(ent.CodeHash).verdict.CompareAndSwap(nil, cv) {
			installed++
		}
	}
	return installed
}
