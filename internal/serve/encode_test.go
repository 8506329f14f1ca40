package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// verdictOf is the reference rendering of a report for the wire: the
// Verdict whose encoding/json bytes appendVerdict must write.
func verdictOf(rep proxion.Report) Verdict {
	v := Verdict{
		Address:         rep.Address.Hex(),
		IsProxy:         rep.IsProxy,
		HasDelegateCall: rep.HasDelegateCall,
		Unresolved:      rep.Unresolved,
		Reason:          rep.Reason,
	}
	if rep.IsProxy {
		v.Logic = rep.Logic.Hex()
		v.Target = rep.Target.String()
		v.Standard = rep.Standard.String()
		if rep.Target == proxion.TargetStorage {
			v.ImplSlot = rep.ImplSlot.Hex()
		}
	}
	if rep.EmulationErr != nil {
		v.EmulationErr = rep.EmulationErr.Error()
	}
	if rep.ResolveErr != nil {
		v.ResolveErr = rep.ResolveErr.Error()
	}
	return v
}

// encodeLine is what json.NewEncoder(w).Encode(v) writes.
func encodeLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzVerdictJSON holds appendVerdict and appendScanError to encoding/json
// on the reference: every field built from the fuzz input, the reason and
// both errors arbitrary strings. The seeds are the reports of a gen corpus
// and strings that need each kind of escape.
func FuzzVerdictJSON(f *testing.F) {
	c := gen.Generate(gen.Config{Seed: 7, Contracts: 48})
	for _, rep := range proxion.NewDetector(c.Chain).AnalyzeAll(c.Registry).Reports {
		var emu, res string
		var errs uint8
		if rep.EmulationErr != nil {
			emu, errs = rep.EmulationErr.Error(), errs|1
		}
		if rep.ResolveErr != nil {
			res, errs = rep.ResolveErr.Error(), errs|2
		}
		f.Add(rep.Address[:], rep.Logic[:], rep.ImplSlot[:], rep.IsProxy, rep.HasDelegateCall, rep.Unresolved,
			uint8(rep.Target), uint8(rep.Standard), errs, emu, res, rep.Reason)
	}
	f.Add([]byte{1}, []byte{2}, []byte{3}, true, true, true, uint8(proxion.TargetStorage), uint8(proxion.StandardOther), uint8(3),
		"<a href=\"x\">&amp;</a>\\", "\x00\x01\b\f\n\r\t\x1f\x7f", "\xff\xfe ok    \xe2\x80 é 😀")
	f.Add([]byte{}, []byte{}, []byte{}, false, false, false, uint8(9), uint8(200), uint8(1), "", "", "")

	f.Fuzz(func(t *testing.T, addr, logic, slot []byte, isProxy, hasDC, unresolved bool,
		target, standard, errs uint8, emu, res, reason string) {
		rep := proxion.Report{
			IsProxy:         isProxy,
			HasDelegateCall: hasDC,
			Unresolved:      unresolved,
			Target:          proxion.TargetSource(target),
			Standard:        proxion.Standard(standard),
			Reason:          reason,
		}
		copy(rep.Address[:], addr)
		copy(rep.Logic[:], logic)
		copy(rep.ImplSlot[:], slot)
		if errs&1 != 0 {
			rep.EmulationErr = errors.New(emu)
		}
		if errs&2 != 0 {
			rep.ResolveErr = errors.New(res)
		}
		got := append(appendVerdict([]byte("prefix"), rep), '\n')
		if want := append([]byte("prefix"), encodeLine(t, verdictOf(rep))...); !bytes.Equal(got, want) {
			t.Fatalf("appendVerdict:\n got %q\nwant %q", got, want)
		}
		got = append(appendScanError(nil, rep.Address, errors.New(reason)), '\n')
		if want := encodeLine(t, map[string]string{"address": rep.Address.Hex(), "error": reason}); !bytes.Equal(got, want) {
			t.Fatalf("appendScanError:\n got %q\nwant %q", got, want)
		}
	})
}

// TestAddrParam holds addrParam's in-place read of the query to what
// URL.Query().Get("addr") gives, on the queries that take it and on those
// that must not.
func TestAddrParam(t *testing.T) {
	const a = "0xda00000000000000000000000000000000100001"
	const b = "0xda00000000000000000000000000000000100002"
	for _, q := range []string{
		"addr=" + a,
		"addr=" + a[2:],
		"addr=0XDA00000000000000000000000000000000100001",
		"addr=" + a + "&x=1",
		"x=1&addr=" + a,
		"addr=" + a + "&addr=" + b,
		"addr=%30xda00000000000000000000000000000000100001",
		"addr=%zz",
		"addr=+" + a,
		"addr=" + a + "+",
		"addr=" + a + ";x=1",
		"x=1;addr=" + a,
		"addr=",
		"addr",
		"",
		"ADDR=" + a,
		"addrx=" + a,
		"addr=zz",
		"addr=" + a + "0",
	} {
		r := &http.Request{URL: &url.URL{RawQuery: q}}
		got, gotErr := addrParam(r)
		var want etypes.Address
		var wantErr error
		if raw := r.URL.Query().Get("addr"); raw == "" {
			wantErr = errors.New("missing addr parameter")
		} else {
			want, wantErr = etypes.HexToAddress(raw)
		}
		if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("?%s: addrParam = %s, %v; URL.Query gives %s, %v", q, got.Hex(), gotErr, want.Hex(), wantErr)
		}
	}
}

// stubWriter is a ResponseWriter that keeps nothing but a fresh header
// map per response.
type stubWriter struct {
	h http.Header
	n int
}

func (w *stubWriter) Header() http.Header         { return w.h }
func (w *stubWriter) WriteHeader(int)             {}
func (w *stubWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *stubWriter) reset()                      { w.h, w.n = make(http.Header), 0 }

// TestVerdictHitAllocs pins the cost of a result-cache hit served through
// Handler(): at most one allocation beyond the stub writer's own, the
// Content-Type insert into its fresh header map.
func TestVerdictHitAllocs(t *testing.T) {
	c := testCorpus(t, 7, 48)
	var addr etypes.Address
	for a, it := range referenceItems(t, c) {
		if it.Report.IsProxy && it.Report.Target == proxion.TargetStorage {
			addr = a
			break
		}
	}
	if addr.IsZero() {
		t.Fatal("corpus has no storage proxy")
	}
	srv, _ := newTestServer(t, c, Config{})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/verdict?addr="+addr.Hex(), nil)
	w := &stubWriter{}
	w.reset()
	h.ServeHTTP(w, req) // the analysis; every later call is a hit
	if w.n == 0 {
		t.Fatal("no body written")
	}
	base := testing.AllocsPerRun(100, w.reset)
	n := testing.AllocsPerRun(100, func() {
		w.reset()
		h.ServeHTTP(w, req)
	})
	if n-base > 1 {
		t.Errorf("a cached hit allocates %v times beyond the writer's %v, want at most 1", n-base, base)
	}
	if hits := srv.Counters().ResultCacheHits; hits < 100 {
		t.Errorf("%d result-cache hits, want every measured call a hit", hits)
	}
}
