package proxion

import (
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/solc"
)

// SourceProvider resolves a contract's verified source, if published. The
// etherscan package implements it; nil results mean bytecode-only analysis.
type SourceProvider interface {
	Source(addr etypes.Address) *solc.Contract
}

// PairAnalysis is the full collision assessment of one proxy/logic pair
// (Section 5).
type PairAnalysis struct {
	Proxy etypes.Address
	Logic etypes.Address
	// ProxyHasSource/LogicHasSource record which analysis path ran.
	ProxyHasSource bool
	LogicHasSource bool
	Functions      []FunctionCollision
	Storage        []StorageCollision
	// ExploitVerified is set when the dynamic replay confirmed a storage
	// collision exploit.
	ExploitVerified bool
}

// AnalyzePair detects function and storage collisions for one proxy/logic
// pair, choosing source- or bytecode-level techniques per availability.
func (d *Detector) AnalyzePair(proxy, logic etypes.Address, sources SourceProvider) PairAnalysis {
	// The analysis steps go to analyzePair directly; what reaches this read
	// comes from another package and owns its capture there.
	return d.analyzePair(proxy, d.chain.Code(proxy), nil, logic, sources) // readerpanic:ignore
}

// analyzePair is AnalyzePair given the proxy's code and, when the caller
// already holds it, the proxy bytecode's record (nil: looked up here).
func (d *Detector) analyzePair(proxy etypes.Address, proxyCode []byte, proxyArt *artifact, logic etypes.Address, sources SourceProvider) PairAnalysis {
	pa := PairAnalysis{Proxy: proxy, Logic: logic}
	logicCode := d.chain.Code(logic)

	var proxySrc, logicSrc *solc.Contract
	if sources != nil {
		proxySrc = sources.Source(proxy)
		logicSrc = sources.Source(logic)
	}
	pa.ProxyHasSource = proxySrc != nil
	pa.LogicHasSource = logicSrc != nil

	// The chain's cached code hashes key the per-bytecode artifacts.
	if proxyArt == nil {
		proxyArt = d.artifacts.of(d.chain.CodeHash(proxy))
	}
	logicArt := d.artifacts.of(d.chain.CodeHash(logic))

	pa.Functions = collideViews(proxyArt.view(proxyCode, proxySrc), logicArt.view(logicCode, logicSrc))
	// The logic first: a logic without storage accesses collides with
	// nothing, so the proxy's code need not be sliced at all.
	if logicAcc := d.storageAccesses(logicArt, logicCode); len(logicAcc) > 0 {
		pa.Storage = StorageCollisions(d.storageAccesses(proxyArt, proxyCode), logicAcc)
	}
	if collided := exploitableSlots(pa.Storage); len(collided) > 0 && d.replayGuarded(proxy, logicArt, logicCode, collided) {
		pa.ExploitVerified = true
		for i := range pa.Storage {
			if pa.Storage[i].Exploitable {
				pa.Storage[i].Verified = true
			}
		}
	}
	return pa
}

// Result is the output of a whole-chain analysis run.
type Result struct {
	// Reports holds one detection report per examined contract, in the
	// chain's deterministic contract order.
	Reports []Report
	// Pairs holds the collision analysis of every detected proxy with its
	// current logic contract.
	Pairs []PairAnalysis
	// Stats is the pipeline instrumentation snapshot of the run.
	Stats *pipeline.Snapshot
}

// Proxies returns the subset of reports that detected a proxy.
func (r *Result) Proxies() []Report {
	var out []Report
	for _, rep := range r.Reports {
		if rep.IsProxy {
			out = append(out, rep)
		}
	}
	return out
}
