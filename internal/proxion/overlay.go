package proxion

import (
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// overlayState is a copy-on-write view over the canonical chain. Emulation
// runs (Section 4.2) execute arbitrary contract code, including SSTOREs and
// CREATEs; the overlay absorbs all of that so detection never perturbs the
// chain and many detections can run concurrently over a frozen chain.
//
// readerpanic:ignore-file — the overlay's base reads are evm.StateDB
// callbacks: the interpreter only ever invokes them inside the probe's
// chain.CaptureReadError (detector.go), a guard the intra-package lint
// cannot see from here.
type overlayState struct {
	base chain.Reader

	code    map[etypes.Address][]byte
	storage map[etypes.Address]map[etypes.Hash]etypes.Hash
	balance map[etypes.Address]u256.Int
	nonce   map[etypes.Address]uint64
	created map[etypes.Address]struct{}
	dead    map[etypes.Address]struct{}

	journal []func()

	// self is the probed contract. accountRead records that the run asked
	// for any account's balance, or for another account's existence, code
	// or code hash: state an upgrade can change without touching a slot of
	// self (emulationTracer.readOutside). Reads of self's code are not
	// counted: the interpreter loads it to run the call, and it is fixed by
	// the code hash the verdict is cached under.
	self        etypes.Address
	accountRead bool
}

var _ evm.StateDB = (*overlayState)(nil)

// newOverlay allocates the overlay alone: each map is made by its first
// write (opened), since reads and deletes of a nil map are legal and most
// probes write to one or two of them, if any.
func newOverlay(base chain.Reader) *overlayState {
	return &overlayState{base: base}
}

// opened returns *m, made first if it is nil.
func opened[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V)
	}
	return *m
}

// noteRead records a read of account a's existence, code or code hash.
func (o *overlayState) noteRead(a etypes.Address) {
	if a != o.self {
		o.accountRead = true
	}
}

func (o *overlayState) Exists(a etypes.Address) bool {
	o.noteRead(a)
	if _, ok := o.created[a]; ok {
		return true
	}
	return o.base.Exists(a)
}

func (o *overlayState) GetCode(a etypes.Address) []byte {
	o.noteRead(a)
	if _, gone := o.dead[a]; gone {
		return nil
	}
	if c, ok := o.code[a]; ok {
		return c
	}
	return o.base.Code(a)
}

func (o *overlayState) GetCodeHash(a etypes.Address) etypes.Hash {
	o.noteRead(a)
	if _, gone := o.dead[a]; gone {
		return etypes.Keccak(nil)
	}
	if c, ok := o.code[a]; ok {
		return etypes.Keccak(c)
	}
	return o.base.CodeHash(a)
}

func (o *overlayState) GetBalance(a etypes.Address) u256.Int {
	o.accountRead = true
	if b, ok := o.balance[a]; ok {
		return b
	}
	return o.base.GetBalance(a)
}

func (o *overlayState) Transfer(from, to etypes.Address, v u256.Int) {
	pf, pt := o.GetBalance(from), o.GetBalance(to)
	hadF, hadT := hasKey(o.balance, from), hasKey(o.balance, to)
	o.journal = append(o.journal, func() {
		restore(o.balance, from, pf, hadF)
		restore(o.balance, to, pt, hadT)
	})
	balance := opened(&o.balance)
	balance[from] = pf.Sub(v)
	balance[to] = pt.Add(v)
}

func (o *overlayState) GetState(a etypes.Address, k etypes.Hash) etypes.Hash {
	if m, ok := o.storage[a]; ok {
		if v, ok := m[k]; ok {
			return v
		}
	}
	return o.base.GetState(a, k)
}

func (o *overlayState) SetState(a etypes.Address, k, v etypes.Hash) {
	m := o.storage[a]
	if m == nil {
		m = make(map[etypes.Hash]etypes.Hash)
		opened(&o.storage)[a] = m
	}
	prev, had := m[k]
	o.journal = append(o.journal, func() { restore(m, k, prev, had) })
	m[k] = v
}

func (o *overlayState) GetNonce(a etypes.Address) uint64 {
	if n, ok := o.nonce[a]; ok {
		return n
	}
	return o.base.GetNonce(a)
}

func (o *overlayState) SetNonce(a etypes.Address, n uint64) {
	prev, had := o.nonce[a]
	o.journal = append(o.journal, func() { restore(o.nonce, a, prev, had) })
	opened(&o.nonce)[a] = n
}

func (o *overlayState) CreateAccount(a etypes.Address) {
	if _, ok := o.created[a]; !ok && !o.base.Exists(a) {
		o.journal = append(o.journal, func() { delete(o.created, a) })
		opened(&o.created)[a] = struct{}{}
	}
}

func (o *overlayState) SetCode(a etypes.Address, code []byte) {
	prev, had := o.code[a]
	o.journal = append(o.journal, func() { restore(o.code, a, prev, had) })
	opened(&o.code)[a] = code
}

func (o *overlayState) SelfDestruct(a, beneficiary etypes.Address) {
	o.Transfer(a, beneficiary, o.GetBalance(a))
	_, had := o.dead[a]
	o.journal = append(o.journal, func() {
		if !had {
			delete(o.dead, a)
		}
	})
	opened(&o.dead)[a] = struct{}{}
}

func (o *overlayState) Snapshot() int { return len(o.journal) }

func (o *overlayState) RevertToSnapshot(rev int) {
	for len(o.journal) > rev {
		o.journal[len(o.journal)-1]()
		o.journal = o.journal[:len(o.journal)-1]
	}
}

func (o *overlayState) AddLog(etypes.Address, []etypes.Hash, []byte) {}

func hasKey[K comparable, V any](m map[K]V, k K) bool {
	_, ok := m[k]
	return ok
}

func restore[K comparable, V any](m map[K]V, k K, prev V, had bool) {
	if had {
		m[k] = prev
	} else {
		delete(m, k)
	}
}
