package dataset_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/solc"
)

// digester hashes chains, registries and labels through their public APIs
// only, so a digest taken before a refactor of the generators can be
// compared with one taken after it.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digester) str(s string) { d.bytes([]byte(s)) }

func (d *digester) u64(v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d *digester) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// chain digests every alive contract's code, creation block, transaction
// count and transaction selectors; every cell each block's delta lists,
// with its value at that block; and the delegatecall events.
func (d *digester) chain(c *chain.Chain) {
	for _, a := range c.Contracts() {
		d.h.Write(a[:])
		d.bytes(c.Code(a))
		d.u64(c.CreatedAt(a))
		d.u64(uint64(c.TxCount(a)))
		for _, sel := range c.TxSelectors(a) {
			d.h.Write(sel[:])
		}
	}
	for b := uint64(0); b <= c.CurrentBlock(); b++ {
		delta := c.BlockDelta(b)
		d.u64(b)
		for _, a := range delta.Deployed {
			d.h.Write(a[:])
		}
		for _, cell := range delta.Written {
			v := c.GetStorageAt(cell.Addr, cell.Slot, b)
			d.h.Write(cell.Addr[:])
			d.h.Write(cell.Slot[:])
			d.h.Write(v[:])
		}
	}
	for _, ev := range c.DelegateEvents() {
		d.h.Write(ev.Proxy[:])
		d.h.Write(ev.Logic[:])
		d.u64(ev.Block)
	}
}

// registry digests the published entry, if any, of each address: the
// compiler-known flag and the source — its declarations and the bytecode
// it compiles to, which covers the function bodies.
func (d *digester) registry(r *etherscan.Registry, addrs []etypes.Address) {
	for _, a := range addrs {
		e, ok := r.Entry(a)
		d.h.Write(a[:])
		d.flag(ok)
		if !ok {
			continue
		}
		d.flag(e.CompilerKnown)
		d.source(e.Source)
	}
}

func (d *digester) source(src *solc.Contract) {
	d.str(src.Name)
	for _, v := range src.Vars {
		d.str(v.Name)
		d.str(string(v.Type))
	}
	for _, f := range src.Funcs {
		d.str(f.ABI.Prototype())
	}
	fb := src.Fallback
	d.u64(uint64(fb.Kind))
	d.h.Write(fb.Slot[:])
	d.h.Write(fb.Target[:])
	d.str(fb.Proto)
	for _, p := range src.DecoyPush4 {
		d.h.Write(p[:])
	}
	d.bytes(solc.MustCompile(src))
}

// landscapeLabelFields are the landscape label's ground-truth fields, by
// name. A field may be read under either of two names (the first one the
// label has); a slice reads as "non-empty", so a collision list and a
// collision flag digest alike.
var landscapeLabelFields = [][]string{
	{"Address"}, {"Kind"}, {"Year"}, {"IsProxy"}, {"Logic"},
	{"HasSource"}, {"CompilerKnown"}, {"HasTx"}, {"TemplateID"},
	{"TrueFunctionCollision", "FuncCollisions"},
	{"TrueStorageCollision", "StorageCollision"},
	{"Upgrades"}, {"ImplSlot"},
}

// label digests a landscape label field by field.
func (d *digester) label(t *testing.T, l *dataset.Label) {
	v := reflect.ValueOf(l).Elem()
	for _, names := range landscapeLabelFields {
		var f reflect.Value
		for _, n := range names {
			if f = v.FieldByName(n); f.IsValid() {
				break
			}
		}
		if !f.IsValid() {
			t.Fatalf("landscape label has no field %v", names)
		}
		switch {
		case f.Type().Implements(reflect.TypeOf((*fmt.Stringer)(nil)).Elem()) && f.Kind() == reflect.Int:
			d.str(f.Interface().(fmt.Stringer).String())
		case f.Kind() == reflect.Bool:
			d.flag(f.Bool())
		case f.Kind() == reflect.Int:
			d.u64(uint64(f.Int()))
		case f.Kind() == reflect.Slice:
			d.flag(f.Len() > 0)
		case f.Kind() == reflect.Array:
			b := make([]byte, f.Len())
			reflect.Copy(reflect.ValueOf(b), f)
			d.h.Write(b)
		default:
			t.Fatalf("label field %s: no digest for kind %v", names[0], f.Kind())
		}
	}
}

// landscapeDigest digests a landscape's chain and registry, and
// separately its labels.
func landscapeDigest(t *testing.T, c *chain.Chain, r *etherscan.Registry, labels []*dataset.Label) landscapeDigests {
	chain, truth := newDigester(), newDigester()
	chain.chain(c)
	addrs := make([]etypes.Address, len(labels))
	for i, l := range labels {
		addrs[i] = l.Address
		truth.label(t, l)
	}
	chain.registry(r, addrs)
	return landscapeDigests{chain: chain.sum(), labels: truth.sum()}
}

type landscapeDigests struct{ chain, labels string }

// TestGeneratorDigestsPinned pins every chain the two generators build —
// the landscape (batch and streamed), the Table 2 corpus, the oracle's
// corpora and the upgrade timelines — to digests taken before the
// generators shared any code, so a refactor of either one that changes a
// byte of code, storage, history, registry or ground truth fails here.
func TestGeneratorDigestsPinned(t *testing.T) {
	landscape := map[int64]landscapeDigests{
		1: {
			chain:  "95a12c832d154150b73660f17cdbf48a83a40fd8dc9e6dc6b577b6f8a3d4940f",
			labels: "0d805565adc71356e1ee54d80cab137b1d0fadfb0a344c1892711ce78f0c82a6",
		},
		7: {
			chain:  "448c5107362cd80f532ba676dd4a1d8eeb439309694be8829cfbfb25556ade37",
			labels: "f2423aa4ce8d35eb1a4ea2404fcc5261a517e5fbc7f2c006b5d86f758d3340a2",
		},
	}
	for seed, want := range landscape {
		pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: 4000})
		if got := landscapeDigest(t, pop.Chain, pop.Registry, pop.Labels); got != want {
			t.Errorf("dataset.Generate seed %d: digests %+v, pinned %+v", seed, got, want)
		}
	}

	s := dataset.GenerateStream(dataset.StreamConfig{Config: dataset.Config{Seed: 7, Contracts: 4000}})
	var streamed []*dataset.Label
	for l := range s.C {
		streamed = append(streamed, l)
	}
	if got := landscapeDigest(t, s.Chain, s.Registry, streamed); got != landscape[7] {
		t.Errorf("GenerateStream seed 7: digests %+v, batch run pinned %+v", got, landscape[7])
	}

	ac := dataset.GenerateAccuracyCorpus()
	d := newDigester()
	d.chain(ac.Chain)
	var addrs []etypes.Address
	for _, cases := range [][]dataset.PairCase{ac.StoragePairs, ac.FunctionPairs} {
		d.u64(uint64(len(cases)))
		for _, pc := range cases {
			d.h.Write(pc.Proxy[:])
			d.h.Write(pc.Logic[:])
			d.flag(pc.Truth)
			d.str(pc.Tag)
			addrs = append(addrs, pc.Logic, pc.Proxy)
		}
	}
	d.registry(ac.Registry, addrs)
	if got, want := d.sum(), "062d2ff84c03bc3657f438e2c2fa2151034915ce98d32bc7406eac9e6822647d"; got != want {
		t.Errorf("GenerateAccuracyCorpus: digest %s, pinned %s", got, want)
	}

	corpora := map[int64]string{
		1: "1c45114b1eaf0a8810496208a74fdcf31c1f1626ab76eabda026b0213eb57809",
		2: "2a42b70b3f94560111d82934e8720a7a67b08dab519609705dc33191a8db0ec3",
		3: "33a12b31d0c876ca10867435b10bf3ba05055802160238e6c845297a5c1c8941",
		4: "e8861eeb60528c7de7350852522e8ecce60b45ab66fc2db3de969875fd86823f",
		5: "d07abb85acd920b79e1692067ee426dd34327ffeb284e3a9b4a3085fb71fe97a",
	}
	for seed, want := range corpora {
		c := gen.Generate(gen.Config{Seed: seed, Contracts: 64})
		d := newDigester()
		fp := c.Fingerprint()
		d.h.Write(fp[:])
		d.chain(c.Chain)
		addrs := make([]etypes.Address, len(c.Labels))
		for i, l := range c.Labels {
			addrs[i] = l.Address
		}
		d.registry(c.Registry, addrs)
		if got := d.sum(); got != want {
			t.Errorf("gen.Generate seed %d: digest %s, pinned %s", seed, got, want)
		}
	}

	timelines := map[int64]string{
		1: "1ad99a5d2bfbb45fbbcecae9894551d252fbfb371e0c395459196558210cd4fb",
		2: "611f27f698e4b79ef78685222a46ce79b43b7101dc3d10e05f7d992f799cfe65",
		3: "74ebd6176d3fbd61597df1d10b74d99ee0d75634421794185d7270ef7cf0e6bb",
	}
	for seed, want := range timelines {
		tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: seed})
		d := newDigester()
		d.chain(tl.Chain)
		for _, p := range tl.Proxies {
			d.h.Write(p.Address[:])
			d.str(p.Kind.String())
			d.h.Write(p.WatchAddr[:])
			d.h.Write(p.WatchSlot[:])
			d.h.Write(p.ImplSlot[:])
			d.h.Write(p.Beacon[:])
			for _, st := range p.Steps {
				d.u64(st.Block)
				d.h.Write(st.Logic[:])
				d.flag(st.Collides)
			}
		}
		for _, ev := range tl.Events {
			d.u64(ev.Block)
			d.h.Write(ev.Proxy[:])
			d.h.Write(ev.Logic[:])
			d.flag(ev.Deploy)
			d.flag(ev.Collides)
		}
		d.registry(tl.Registry, tl.Chain.Contracts())
		if got := d.sum(); got != want {
			t.Errorf("gen.GenerateTimeline seed %d: digest %s, pinned %s", seed, got, want)
		}
	}
}
