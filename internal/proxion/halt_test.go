package proxion

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
)

// hideHalt passes every Tracer callback through and has no Halt method: the
// EVM runs the emulation to its natural end, as it did before Halter.
type hideHalt struct{ evm.Tracer }

// TestProbeHaltChangesNothing: stopping the emulation at the forwarding
// DELEGATECALL yields, for every probed contract of the gen taxonomy and of
// a landscape sample, exactly the outcome of running it to the end — report,
// logic, target source, slot, guard slots, reason, emulation error.
func TestProbeHaltChangesNothing(t *testing.T) {
	g := gen.Generate(gen.Config{Seed: 29, Contracts: 96})
	if got := len(g.Shapes()); got < 9 {
		t.Fatalf("gen corpus holds %d shapes, want the full taxonomy", got)
	}
	pop := dataset.Generate(dataset.Config{Seed: 29, Contracts: 600})
	probed, forwarded, aborted := 0, 0, 0
	for _, c := range []*chain.Chain{g.Chain, pop.Chain} {
		d := NewDetector(c)
		for _, addr := range c.Contracts() {
			code := c.Code(addr)
			if !disasm.ContainsOp(code, evm.DELEGATECALL) {
				continue
			}
			probe := CraftCallData(addr, code)
			halted := d.emulateProbe(addr, code, probe)

			tracer := d.newProbeTracer(addr, probe)
			full := d.probeThrough(hideHalt{tracer}, tracer)

			if !reflect.DeepEqual(halted, full) {
				t.Fatalf("%s: halting changed the outcome:\nhalted %+v\n  full %+v", addr, halted, full)
			}
			probed++
			if halted.rep.IsProxy {
				forwarded++
			}
			if halted.rep.EmulationErr != nil {
				aborted++
			}
		}
	}
	if probed < 200 || forwarded < 100 || aborted == 0 {
		t.Fatalf("corpus too thin: %d probed, %d forwarded, %d aborted", probed, forwarded, aborted)
	}
}

// codeReads counts Code reads per address on top of a chain.
type codeReads struct {
	chain.Reader
	mu sync.Mutex
	n  map[etypes.Address]int
}

func (r *codeReads) Code(a etypes.Address) []byte {
	r.mu.Lock()
	r.n[a]++
	r.mu.Unlock()
	return r.Reader.Code(a)
}

// TestProbeNeverLoadsTheLogic: the verdict is fixed when the DELEGATECALL
// is entered, so a proxy's probe reads the proxy's code and never the logic
// contract's.
func TestProbeNeverLoadsTheLogic(t *testing.T) {
	g := gen.Generate(gen.Config{Seed: 31, Contracts: 64})
	checked := 0
	for _, l := range g.Labels {
		if !l.Detectable || l.Logic.IsZero() || l.Logic == l.Address || len(g.Chain.Code(l.Logic)) == 0 {
			continue
		}
		reads := &codeReads{Reader: g.Chain, n: make(map[etypes.Address]int)}
		rep := NewDetector(reads).Check(l.Address)
		if !rep.IsProxy || rep.Logic != l.Logic {
			t.Fatalf("%v %s: report %+v, want a proxy of %s", l.Kind, l.Address, rep, l.Logic)
		}
		if n := reads.n[l.Logic]; n != 0 {
			t.Errorf("%v %s: the probe read the logic contract's code %d times, want 0", l.Kind, l.Address, n)
		}
		if reads.n[l.Address] == 0 {
			t.Errorf("%v %s: the counting reader saw no read of the proxy's own code", l.Kind, l.Address)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d proxies checked", checked)
	}
}
