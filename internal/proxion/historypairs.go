package proxion

import "repro/internal/etypes"

// HistoricalAnalysis is the collision assessment of one proxy against every
// logic contract it ever delegated to. Upgrades are where storage layouts
// drift (Section 2.3: "upgrading the logic contract to newer versions that
// change the order or types of variables also facilitates storage
// collisions"), so analyzing only the current pair under-reports.
type HistoricalAnalysis struct {
	Proxy etypes.Address
	// Pairs holds one analysis per historical logic, oldest first.
	Pairs []PairAnalysis
}

// AnalyzePairHistory recovers the proxy's full logic history with Algorithm
// 1 and runs the collision analysis against each version. For hard-coded
// (minimal) proxies the single fixed logic is analyzed. No analysis step
// runs it: over a fallible reader, call it under chain.CaptureReadError.
func (d *Detector) AnalyzePairHistory(rep Report, sources SourceProvider) HistoricalAnalysis {
	out := HistoricalAnalysis{Proxy: rep.Address}
	if !rep.IsProxy {
		return out
	}
	var logics []etypes.Address
	if rep.Target == TargetStorage {
		logics = d.LogicHistory(rep.Address, rep.ImplSlot)
	} else {
		logics = []etypes.Address{rep.Logic}
	}
	for _, logic := range logics {
		if logic.IsZero() {
			continue
		}
		out.Pairs = append(out.Pairs, d.AnalyzePair(rep.Address, logic, sources))
	}
	return out
}
