package gen

import (
	"encoding/binary"

	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/solc"
	"repro/internal/u256"
)

// Well-known storage slots, duplicated from the analyzer so the generators
// share no code with the system under test.
var (
	// slotOne is the ad-hoc implementation slot of Listing 2's layout.
	slotOne           = etypes.HashFromWord(u256.One())
	slotEIP1967       = eip1967Slot("eip1967.proxy.implementation")
	slotEIP1967Admin  = eip1967Slot("eip1967.proxy.admin")
	slotEIP1967Beacon = eip1967Slot("eip1967.proxy.beacon")
	slotEIP1822       = etypes.Keccak([]byte("PROXIABLE"))
)

// eip1967Slot is keccak256(name) - 1, the EIP-1967 slot derivation.
func eip1967Slot(name string) etypes.Hash {
	return etypes.HashFromWord(u256.FromBytes32(keccak.Sum256([]byte(name))).Sub(u256.One()))
}

// A Deployer installs contracts on one chain and publishes their sources
// to one registry, minting each fresh address from its own prefix byte and
// counter. Every generator deploys through one.
type Deployer struct {
	Chain    *chain.Chain
	Registry *etherscan.Registry
	prefix   byte
	next     uint64
}

// NewDeployer deploys onto c and r; the first minted address is the prefix
// byte followed by start+1 in the last eight bytes.
func NewDeployer(c *chain.Chain, r *etherscan.Registry, prefix byte, start uint64) *Deployer {
	return &Deployer{Chain: c, Registry: r, prefix: prefix, next: start}
}

// newAddr mints the next address.
func (d *Deployer) newAddr() etypes.Address {
	d.next++
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[12:], d.next)
	buf[0] = d.prefix
	return etypes.Address(buf)
}

// Install places l.Code at l.Address, minting the address if it is zero,
// and publishes src with the compiler-known flag when l.HasSource.
func (d *Deployer) Install(l *Label, src *solc.Contract, compilerKnown bool) {
	if l.Address.IsZero() {
		l.Address = d.newAddr()
	}
	d.Chain.InstallContract(l.Address, l.Code)
	if l.HasSource && src != nil {
		d.Registry.Publish(l.Address, src, compilerKnown)
	}
}

// SetSlot writes an address into a contract's storage slot.
func (d *Deployer) SetSlot(contract etypes.Address, slot etypes.Hash, value etypes.Address) {
	d.Chain.SetStorageDirect(contract, slot, etypes.HashFromWord(value.Word()))
}

// RegisterFacet points every selector of the facet's source at the facet
// in the diamond's facet mapping: slot keccak(selector-as-word ‖ base),
// base being the diamond fallback's mapping slot.
func (d *Deployer) RegisterFacet(diamond, facet *Label) {
	base := diamond.Source.Fallback.Slot
	for _, sel := range facet.Source.Selectors() {
		pre := make([]byte, 64)
		selWord := u256.FromBytes(sel[:]).Bytes32()
		copy(pre[:32], selWord[:])
		copy(pre[32:], base[:])
		d.SetSlot(diamond.Address, etypes.Keccak(pre), facet.Address)
	}
}
