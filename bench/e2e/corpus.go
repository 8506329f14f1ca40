package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/solc"
)

// verdict is what the generator's label says the analysis must answer for
// one contract.
type verdict struct {
	isProxy bool
	logic   etypes.Address
}

// matchesReport checks one detection report against the label: right
// address, resolved, right proxy verdict, and for a proxy the right logic
// contract.
func (v verdict) matchesReport(addr etypes.Address, rep proxion.Report) bool {
	if rep.Address != addr || rep.Unresolved || rep.IsProxy != v.isProxy {
		return false
	}
	return !v.isProxy || rep.Logic == v.logic
}

// matches checks one finalized item: the report, and for a proxy that its
// pair analysis is attached.
func (v verdict) matches(addr etypes.Address, it proxion.Item) bool {
	return v.matchesReport(addr, it.Report) && (!v.isProxy || it.Pair != nil)
}

// corpus is one workload's generated input: a chain, the contracts to
// analyze in stream order, and the expected verdict of each.
type corpus struct {
	chain   *chain.Chain
	sources proxion.SourceProvider
	addrs   []etypes.Address
	want    []verdict
}

// scaled divides a full-size dimension by the smoke-test scale, keeping at
// least min.
func scaled(full, scale, min int) int {
	if n := full / scale; n > min {
		return n
	}
	return min
}

// landscapeCorpus is the mainnet-skewed population: mostly byte-identical
// clones, 39% without a DELEGATECALL. Diamonds and the hostile proxy are
// the detector's documented blind spots, so their expected verdict is
// "not a proxy".
func landscapeCorpus(seed int64, scale int) (*corpus, error) {
	pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: scaled(50000, scale, 200)})
	c := &corpus{chain: pop.Chain, sources: pop.Registry, addrs: pop.Chain.Contracts()}
	for _, a := range c.addrs {
		l := pop.ByAddr[a]
		if l == nil {
			return nil, fmt.Errorf("landscape: contract %s has no label", a.Hex())
		}
		v := verdict{}
		if l.IsProxy && l.Kind != dataset.KindDiamond && l.Kind != dataset.KindHostileProxy {
			v = verdict{isProxy: true, logic: l.Logic}
		}
		c.want = append(c.want, v)
	}
	return c, nil
}

// genCorpus is the full shape taxonomy with almost every bytecode distinct.
func genCorpus(seed int64, contracts int) (*corpus, error) {
	g := gen.Generate(gen.Config{Seed: seed, Contracts: contracts})
	c := &corpus{chain: g.Chain, sources: g.Registry, addrs: g.Chain.Contracts()}
	for _, a := range c.addrs {
		l := g.ByAddr[a]
		if l == nil {
			return nil, fmt.Errorf("gen: contract %s has no label", a.Hex())
		}
		v := verdict{}
		if l.Detectable {
			v = verdict{isProxy: true, logic: l.Logic}
		}
		c.want = append(c.want, v)
	}
	return c, nil
}

// nearCloneAddr derives the address of slot i in one family of the
// near-clone landscape. The seed is part of the address, so it is part of
// every stamped and hashed byte of the corpus.
func nearCloneAddr(seed int64, tag byte, i int) etypes.Address {
	var a etypes.Address
	a[0], a[1] = 0xbc, tag
	binary.BigEndian.PutUint64(a[2:10], uint64(seed))
	binary.BigEndian.PutUint32(a[15:19], uint32(i))
	return a
}

// nearCloneCorpus is the structural tier's population: distinct bytecodes
// the exact-hash cache cannot coalesce but the fingerprint index can. 60%
// EIP-1167 stamps of distinct targets, 25% storage-slot proxies that differ
// only in the slot constant, 15% byte-identical copies of the first stamp.
func nearCloneCorpus(seed int64, scale int) (*corpus, error) {
	total := scaled(20000, scale, 40)
	stamps, twins := total*60/100, total*25/100
	dupes := total - stamps - twins
	st := chain.New()
	st.AdvanceTo(1)
	c := &corpus{chain: st}
	add := func(addr etypes.Address, code []byte, logic etypes.Address) {
		st.InstallContract(addr, code)
		c.addrs = append(c.addrs, addr)
		c.want = append(c.want, verdict{isProxy: true, logic: logic})
	}
	for i := 0; i < stamps; i++ {
		target := nearCloneAddr(seed, 0xee, i)
		add(nearCloneAddr(seed, 0x01, i), disasm.MinimalProxyRuntime(target), target)
	}
	for i := 0; i < twins; i++ {
		addr := nearCloneAddr(seed, 0x02, i)
		slot := etypes.Keccak(addr[:])
		code, err := solc.Compile(&solc.Contract{
			Name:     fmt.Sprintf("Twin%d", i),
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
		})
		if err != nil {
			return nil, fmt.Errorf("nearclone: twin %d: %w", i, err)
		}
		logic := nearCloneAddr(seed, 0xdd, i)
		add(addr, code, logic)
		st.SetStorageDirect(addr, slot, etypes.HashFromWord(logic.Word()))
	}
	first := nearCloneAddr(seed, 0xee, 0)
	for i := 0; i < dupes; i++ {
		add(nearCloneAddr(seed, 0x03, i), disasm.MinimalProxyRuntime(first), first)
	}
	return c, nil
}
