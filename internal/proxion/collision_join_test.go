package proxion

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
)

// TestStorageCollisionsMatchGrouping holds the merge-join against the
// frozen map-grouping version: every proxy/logic pair of a gen corpus on the
// extractor's own (slot-sorted) output, then the same accesses shuffled and
// with duplicates, where the join works on a stably sorted copy and must
// still report the pair of fields the grouping found first.
func TestStorageCollisionsMatchGrouping(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 23, Contracts: 120})
	rng := rand.New(rand.NewSource(23))
	pairs, colliding := 0, 0
	for _, l := range c.Proxies() {
		if l.Logic.IsZero() {
			continue
		}
		proxyAcc := ExtractStorageAccesses(l.Code)
		logicAcc := ExtractStorageAccesses(c.Chain.Code(l.Logic))
		pairs++
		want := refStorageCollisions(proxyAcc, logicAcc)
		if got := StorageCollisions(proxyAcc, logicAcc); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %s: sorted input\n got %+v\nwant %+v", l.Kind, l.Address, got, want)
		}
		if len(want) > 0 {
			colliding++
		}

		for round := 0; round < 8; round++ {
			p, q := scramble(rng, proxyAcc), scramble(rng, logicAcc)
			pBefore, qBefore := append([]StorageAccess(nil), p...), append([]StorageAccess(nil), q...)
			want := refStorageCollisions(p, q)
			if got := StorageCollisions(p, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %s: scrambled input\n got %+v\nwant %+v", l.Kind, l.Address, got, want)
			}
			if !reflect.DeepEqual(p, pBefore) || !reflect.DeepEqual(q, qBefore) {
				t.Fatal("StorageCollisions reordered its caller's slices")
			}
		}
	}
	if pairs < 30 || colliding < 3 {
		t.Fatalf("corpus too thin: %d pairs, %d colliding", pairs, colliding)
	}
}

// scramble returns accs shuffled, with a few entries repeated and one
// access of a slot nobody else touches.
func scramble(rng *rand.Rand, accs []StorageAccess) []StorageAccess {
	out := append([]StorageAccess(nil), accs...)
	for i := 0; i < len(accs) && i < 3; i++ {
		out = append(out, accs[rng.Intn(len(accs))])
	}
	out = append(out, StorageAccess{Slot: etypes.Hash{0: 0xfe, 31: byte(rng.Intn(4))}, Size: 32, Kind: AccessRead})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestStorageCollisionsFirstPairIsStable pins the tie the differential test
// relies on: among several mismatched field pairs of one slot, the one
// reported is the first in the caller's order, sorted input or not.
func TestStorageCollisionsFirstPairIsStable(t *testing.T) {
	lo, hi := etypes.Hash{31: 1}, etypes.Hash{31: 2}
	proxy := []StorageAccess{
		{Slot: hi, Offset: 0, Size: 20, Kind: AccessRead},
		{Slot: lo, Offset: 0, Size: 32, Kind: AccessRead},
		{Slot: hi, Offset: 0, Size: 8, Kind: AccessRead},
	}
	logic := []StorageAccess{
		{Slot: hi, Offset: 0, Size: 1, Kind: AccessRead, Guard: true},
		{Slot: lo, Offset: 0, Size: 32, Kind: AccessWrite},
		{Slot: hi, Offset: 0, Size: 2, Kind: AccessRead},
	}
	got := StorageCollisions(proxy, logic)
	want := []StorageCollision{{Slot: hi, ProxyOffset: 0, ProxySize: 20, LogicOffset: 0, LogicSize: 1, GuardInvolved: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
