package proxion

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/abi"
	"repro/internal/disasm"
	"repro/internal/keccak"
	"repro/internal/solc"
)

// FunctionCollision is a selector shared by a proxy and its logic contract:
// call data carrying it executes the proxy's function and can never reach
// the logic's (Section 2.3).
type FunctionCollision struct {
	Selector [4]byte
	// ProxyProto and LogicProto are the colliding prototypes when source
	// is available; empty for bytecode-only contracts, where only the
	// 4-byte selector is recoverable.
	ProxyProto string
	LogicProto string
}

// FunctionCollisionsBytecode cross-checks the dispatcher-extracted
// signatures of two bytecode-only contracts — the capability no prior tool
// had (Table 1). Dispatcher-pattern extraction avoids the false positives
// of treating every PUSH4 immediate as a signature.
func FunctionCollisionsBytecode(proxyCode, logicCode []byte) []FunctionCollision {
	return FunctionCollisions(proxyCode, logicCode, nil, nil)
}

// selectorView is the function table of one contract as collision detection
// sees it: source prototypes when present, dispatcher extraction otherwise.
type selectorView struct {
	// selectors is ascending; a source declaring two prototypes with one
	// selector lists it twice.
	selectors [][4]byte
	// src is the source a source view was built from; nil for bytecode.
	src *solc.Contract
}

func compareSelectors(a, b [4]byte) int { return bytes.Compare(a[:], b[:]) }

// sourceView is the selector view of a contract with verified source. It
// holds no prototype: proto looks a selector's up when it collides.
func sourceView(src *solc.Contract) selectorView {
	v := selectorView{selectors: make([][4]byte, len(src.Funcs)), src: src}
	for i, f := range src.Funcs {
		v.selectors[i] = lookupFunction(f.ABI).sel
	}
	sortSelectors(v.selectors)
	return v
}

// proto returns the prototype of sel in a source view — of the last
// function declaring it, if two do — and "" in a bytecode view.
func (v selectorView) proto(sel [4]byte) string {
	if v.src == nil {
		return ""
	}
	for i := len(v.src.Funcs) - 1; i >= 0; i-- {
		if fn := lookupFunction(v.src.Funcs[i].ABI); fn.sel == sel {
			return fn.proto
		}
	}
	return ""
}

// sortSelectors sorts sels in place and returns it.
func sortSelectors(sels [][4]byte) [][4]byte {
	slices.SortFunc(sels, compareSelectors)
	return sels
}

func viewOf(code []byte, src *solc.Contract) selectorView {
	if src != nil {
		return sourceView(src)
	}
	return selectorView{selectors: sortSelectors(disasm.DispatcherSelectors(code))}
}

// FunctionCollisions detects selector collisions for a proxy/logic pair
// with any combination of source availability.
func FunctionCollisions(proxyCode, logicCode []byte, proxySrc, logicSrc *solc.Contract) []FunctionCollision {
	return collideViews(viewOf(proxyCode, proxySrc), viewOf(logicCode, logicSrc))
}

// collideViews returns the selectors of the proxy's view that the logic's
// view holds too, in ascending order.
func collideViews(pv, lv selectorView) []FunctionCollision {
	var out []FunctionCollision
	for _, s := range pv.selectors {
		if _, ok := slices.BinarySearchFunc(lv.selectors, s, compareSelectors); ok {
			out = append(out, FunctionCollision{
				Selector:   s,
				ProxyProto: pv.proto(s),
				LogicProto: lv.proto(s),
			})
		}
	}
	return out
}

// memoFunction is a function as the memo holds it: its selector, and its
// prototype, interned — the string the memo is keyed by.
type memoFunction struct {
	sel   [4]byte
	proto string
}

// functionMemo caches the keccak of function prototypes process-wide:
// prototypes repeat across every analyzed pair, so hashing each one once is
// enough. It is keyed by the prototype, which lookupFunction builds in a
// stack buffer; a hit allocates nothing and takes the read lock only (under
// a plain mutex, a scheduler trace of two workers showed them queueing on
// it). It holds at most functionMemoCap entries: an insert that would pass
// the bound first empties it, so a long-running service does not keep every
// prototype it has ever seen. The interned strings that views already hold
// stay valid; the next lookup of a dropped prototype hashes it again.
var (
	functionMu   sync.RWMutex
	functionMemo = make(map[string]memoFunction)
)

// functionMemoCap bounds functionMemo. No benchmark corpus comes near it:
// the largest holds about 15k distinct prototypes.
const functionMemoCap = 1 << 16

// lookupFunction returns f's selector and prototype, hashing and interning
// the prototype on its first lookup.
func lookupFunction(f abi.Function) memoFunction {
	var buf [64]byte
	proto := f.AppendPrototype(buf[:0])
	functionMu.RLock()
	fn, ok := functionMemo[string(proto)]
	functionMu.RUnlock()
	if !ok {
		h := keccak.Sum256(proto)
		fn = memoFunction{sel: [4]byte(h[:4]), proto: string(proto)}
		functionMu.Lock()
		if len(functionMemo) >= functionMemoCap {
			clear(functionMemo)
		}
		functionMemo[fn.proto] = fn
		functionMu.Unlock()
	}
	return fn
}
