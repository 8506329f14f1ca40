package proxion

import (
	"bytes"
	"slices"
	"sort"
	"sync"

	"repro/internal/disasm"
	"repro/internal/etypes"
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

// FunctionCollisionsSource intersects the declared function signatures of
// two contracts with available source code — the Slither-style path
// (Section 5.1).
func FunctionCollisionsSource(proxy, logic *solc.Contract) []FunctionCollision {
	logicBySel := make(map[[4]byte]string)
	for _, proto := range logic.Prototypes() {
		logicBySel[selectorOf(proto)] = proto
	}
	var out []FunctionCollision
	for _, proto := range proxy.Prototypes() {
		sel := selectorOf(proto)
		if lp, ok := logicBySel[sel]; ok {
			out = append(out, FunctionCollision{Selector: sel, ProxyProto: proto, LogicProto: lp})
		}
	}
	sortCollisions(out)
	return out
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
	// protoOf names the selectors of a source view; nil for bytecode.
	protoOf map[[4]byte]string
}

func compareSelectors(a, b [4]byte) int { return bytes.Compare(a[:], b[:]) }

// sourceView is the selector view of a contract with verified source.
func sourceView(src *solc.Contract) selectorView {
	v := selectorView{protoOf: make(map[[4]byte]string)}
	for _, proto := range src.Prototypes() {
		sel := selectorOf(proto)
		v.selectors = append(v.selectors, sel)
		v.protoOf[sel] = proto
	}
	sortSelectors(v.selectors)
	return v
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
				ProxyProto: pv.protoOf[s],
				LogicProto: lv.protoOf[s],
			})
		}
	}
	return out
}

func sortCollisions(cs []FunctionCollision) {
	sort.Slice(cs, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if cs[i].Selector[k] != cs[j].Selector[k] {
				return cs[i].Selector[k] < cs[j].Selector[k]
			}
		}
		return false
	})
}

// selectorMemo caches the keccak of function prototypes process-wide:
// selectorOf is a pure function and prototype strings repeat across every
// analyzed pair, so hashing each one once is enough.
var selectorMemo sync.Map // string -> [4]byte

func selectorOf(proto string) [4]byte {
	if v, ok := selectorMemo.Load(proto); ok {
		return v.([4]byte)
	}
	sel := etypes.Keccak([]byte(proto)).SelectorBytes()
	selectorMemo.Store(proto, sel)
	return sel
}
