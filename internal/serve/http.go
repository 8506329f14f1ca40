package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/static"
	"repro/internal/store"
)

// The service's JSON surface. Verdicts are flat, hex-encoded renderings
// of proxion.Report — the wire shape is decoupled from the analysis
// structs so the engine can evolve without breaking clients.

// Verdict is the JSON form of one contract's analysis report. The service
// writes it with appendVerdict, not through this struct, which is the
// shape clients decode into.
type Verdict struct {
	Address         string `json:"address"`
	IsProxy         bool   `json:"is_proxy"`
	Logic           string `json:"logic,omitempty"`
	Target          string `json:"target,omitempty"`
	ImplSlot        string `json:"impl_slot,omitempty"`
	Standard        string `json:"standard,omitempty"`
	HasDelegateCall bool   `json:"has_delegatecall"`
	EmulationErr    string `json:"emulation_err,omitempty"`
	Unresolved      bool   `json:"unresolved,omitempty"`
	ResolveErr      string `json:"resolve_err,omitempty"`
	Reason          string `json:"reason"`
}

// appendVerdict appends rep's Verdict as JSON: the bytes encoding/json
// writes for verdictOf(rep) (kept in the tests as the reference), without
// the newline an Encoder adds. Fields go in Verdict's order and omitempty,
// hex digits straight from the address and slot arrays, strings through
// appendJSONString.
func appendVerdict(dst []byte, rep proxion.Report) []byte {
	dst = append(dst, `{"address":`...)
	dst = appendHex(dst, rep.Address[:])
	dst = append(dst, `,"is_proxy":`...)
	dst = strconv.AppendBool(dst, rep.IsProxy)
	if rep.IsProxy {
		dst = append(dst, `,"logic":`...)
		dst = appendHex(dst, rep.Logic[:])
		dst = appendOmitEmpty(dst, `,"target":`, rep.Target.String())
		if rep.Target == proxion.TargetStorage {
			dst = append(dst, `,"impl_slot":`...)
			dst = appendHex(dst, rep.ImplSlot[:])
		}
		dst = appendOmitEmpty(dst, `,"standard":`, rep.Standard.String())
	}
	dst = append(dst, `,"has_delegatecall":`...)
	dst = strconv.AppendBool(dst, rep.HasDelegateCall)
	if rep.EmulationErr != nil {
		dst = appendOmitEmpty(dst, `,"emulation_err":`, rep.EmulationErr.Error())
	}
	if rep.Unresolved {
		dst = append(dst, `,"unresolved":true`...)
	}
	if rep.ResolveErr != nil {
		dst = appendOmitEmpty(dst, `,"resolve_err":`, rep.ResolveErr.Error())
	}
	dst = append(dst, `,"reason":`...)
	dst = appendJSONString(dst, rep.Reason)
	return append(dst, '}')
}

// appendOmitEmpty appends key and the string s unless s is empty.
func appendOmitEmpty(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

// appendHex appends b as a quoted 0x-prefixed lowercase hex string.
func appendHex(dst, b []byte) []byte {
	dst = append(dst, `"0x`...)
	return append(hex.AppendEncode(dst, b), '"')
}

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes with HTML escaping on: `"` and `\`; control bytes (the short
// forms for \b, \f, \n, \r and \t); `<`, `>` and `&`; each byte of
// invalid UTF-8 as \ufffd; and U+2028 and U+2029.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// FunctionCollisionJSON is one colliding selector on the wire.
type FunctionCollisionJSON struct {
	Selector   string `json:"selector"`
	ProxyProto string `json:"proxy_proto,omitempty"`
	LogicProto string `json:"logic_proto,omitempty"`
}

// StorageCollisionJSON is one colliding storage slot on the wire.
type StorageCollisionJSON struct {
	Slot        string `json:"slot"`
	ProxyOffset int    `json:"proxy_offset"`
	ProxySize   int    `json:"proxy_size"`
	LogicOffset int    `json:"logic_offset"`
	LogicSize   int    `json:"logic_size"`
	Exploitable bool   `json:"exploitable"`
	Verified    bool   `json:"verified"`
}

// CollisionReport is the JSON form of one proxy/logic pair analysis.
type CollisionReport struct {
	Proxy           string                  `json:"proxy"`
	Logic           string                  `json:"logic"`
	IsProxy         bool                    `json:"is_proxy"`
	Functions       []FunctionCollisionJSON `json:"function_collisions"`
	Storage         []StorageCollisionJSON  `json:"storage_collisions"`
	ExploitVerified bool                    `json:"exploit_verified"`
	Reason          string                  `json:"reason,omitempty"`
}

// collisionsOf renders an item's pair analysis for the wire.
func collisionsOf(it proxion.Item) CollisionReport {
	out := CollisionReport{
		Proxy:     it.Report.Address.Hex(),
		IsProxy:   it.Report.IsProxy,
		Functions: []FunctionCollisionJSON{},
		Storage:   []StorageCollisionJSON{},
	}
	if !it.Report.IsProxy {
		out.Reason = it.Report.Reason
		return out
	}
	out.Logic = it.Report.Logic.Hex()
	if it.Pair == nil {
		out.Reason = "no pair analysis (logic address unresolved)"
		return out
	}
	for _, fc := range it.Pair.Functions {
		out.Functions = append(out.Functions, FunctionCollisionJSON{
			Selector:   fmt.Sprintf("0x%x", fc.Selector),
			ProxyProto: fc.ProxyProto,
			LogicProto: fc.LogicProto,
		})
	}
	for _, sc := range it.Pair.Storage {
		out.Storage = append(out.Storage, StorageCollisionJSON{
			Slot:        sc.Slot.Hex(),
			ProxyOffset: sc.ProxyOffset,
			ProxySize:   sc.ProxySize,
			LogicOffset: sc.LogicOffset,
			LogicSize:   sc.LogicSize,
			Exploitable: sc.Exploitable,
			Verified:    sc.Verified,
		})
	}
	out.ExploitVerified = it.Pair.ExploitVerified
	return out
}

// StaticDelegateJSON is one reachable DELEGATECALL site on the wire.
type StaticDelegateJSON struct {
	PC               uint64 `json:"pc"`
	Provenance       string `json:"provenance"`
	Target           string `json:"target,omitempty"`
	Slot             string `json:"slot,omitempty"`
	ForwardsCalldata bool   `json:"forwards_calldata"`
	TargetTainted    bool   `json:"target_tainted,omitempty"`
}

// StaticReport is the /v1/static payload: the emulation-free static
// profile of one contract's runtime bytecode. Selectors is the
// dispatcher's table, the one collision detection reads.
type StaticReport struct {
	Address         string               `json:"address"`
	CodeHash        string               `json:"code_hash"`
	Fingerprint     string               `json:"fingerprint"`
	Selectors       []string             `json:"selectors"`
	SlotReads       []string             `json:"slot_reads,omitempty"`
	SlotWrites      []string             `json:"slot_writes,omitempty"`
	KeccakReads     int                  `json:"keccak_reads,omitempty"`
	KeccakWrites    int                  `json:"keccak_writes,omitempty"`
	Delegates       []StaticDelegateJSON `json:"delegates"`
	HasDelegateCall bool                 `json:"has_delegatecall"`
	Blocks          int                  `json:"blocks"`
	ReachableBlocks int                  `json:"reachable_blocks"`
	MaskedImmFlow   bool                 `json:"masked_imm_flow,omitempty"`
	Truncated       bool                 `json:"truncated,omitempty"`
}

// staticReportOf renders a static summary for the wire.
func staticReportOf(addr etypes.Address, sum *static.Summary) StaticReport {
	out := StaticReport{
		Address:         addr.Hex(),
		CodeHash:        sum.CodeHash.Hex(),
		Fingerprint:     sum.Fingerprint.Hex(),
		Selectors:       []string{},
		Delegates:       []StaticDelegateJSON{},
		HasDelegateCall: sum.HasDelegateCall,
		Blocks:          sum.Blocks,
		ReachableBlocks: sum.ReachableBlocks,
		KeccakReads:     sum.KeccakReads,
		KeccakWrites:    sum.KeccakWrites,
		MaskedImmFlow:   sum.MaskedImmFlow,
		Truncated:       sum.Truncated,
	}
	for _, sel := range sum.Selectors {
		out.Selectors = append(out.Selectors, fmt.Sprintf("0x%x", sel))
	}
	for _, s := range sum.SlotReads {
		out.SlotReads = append(out.SlotReads, s.Hex())
	}
	for _, s := range sum.SlotWrites {
		out.SlotWrites = append(out.SlotWrites, s.Hex())
	}
	for _, del := range sum.Delegates {
		j := StaticDelegateJSON{
			PC:               del.PC,
			Provenance:       del.Provenance.String(),
			ForwardsCalldata: del.ForwardsCalldata,
			TargetTainted:    del.TargetTainted,
		}
		switch del.Provenance {
		case static.ProvHardcoded:
			j.Target = del.Target.Hex()
		case static.ProvSlotConst:
			j.Slot = del.Slot.Hex()
		}
		out.Delegates = append(out.Delegates, j)
	}
	return out
}

// ShardStats is the detector's live statistics: the same proxion.Summary
// shape the CLI's -json flag emits, fed from the server's fold-as-you-go
// builder and live engine counters.
type ShardStats struct {
	Shard   int             `json:"shard"`
	Summary proxion.Summary `json:"summary"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	Counters Counters `json:"counters"`
	// Total is the whole service's landscape view in the -json summary
	// shape.
	Total proxion.Summary `json:"total"`
	// Shards holds one entry, Total with the engine counters attached: the
	// server has had one detector since it stopped sharding, and the field
	// keeps its name and shape for the clients compiled against it.
	Shards []ShardStats `json:"shards"`
	Store  *store.Stats `json:"store,omitempty"`
}

// Stats assembles the service-wide statistics: the summary in the -json
// shape, the engine counters as they read now — the reader's own
// (getStorageAt calls, retries, breaker trips) as the difference since New,
// there being no end of stream to fold them at; no per-stage rows, there
// being no engine — the store's counters and the request counters.
func (s *Server) Stats() StatsResponse {
	snap := s.stats.Snapshot()
	s.detector.CountReads(snap, s.base)

	// Summary copies the builder's state, so the server keeps folding.
	s.summaryMu.Lock()
	total := s.summary.Summary(nil)
	s.summaryMu.Unlock()
	shard := total
	shard.Pipeline = snap

	resp := StatsResponse{
		Counters: s.Counters(),
		Total:    total,
		Shards:   []ShardStats{{Summary: shard}},
	}
	if s.st != nil {
		st := s.st.Stats()
		resp.Store = &st
	}
	return resp
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz                 — liveness
//	GET  /v1/verdict?addr=0x…     — one contract's verdict
//	POST /v1/verdicts             — {"addresses": [...]} → batch verdicts
//	POST /v1/scan                 — {"addresses": [...]} → NDJSON verdict stream
//	GET  /v1/collisions?addr=0x…  — one proxy's collision report
//	GET  /v1/static?addr=0x…      — one contract's static bytecode profile
//	GET  /v1/stats                — summary, engine and request counters, store stats
//	GET  /v1/watch/stats          — chain-follower counters (404 unless -follow)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/verdict", s.handleVerdict)
	mux.HandleFunc("/v1/verdicts", s.handleVerdicts)
	mux.HandleFunc("/v1/scan", s.handleScan)
	mux.HandleFunc("/v1/collisions", s.handleCollisions)
	mux.HandleFunc("/v1/static", s.handleStatic)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/watch/stats", s.handleWatchStats)
	return mux
}

// handleWatchStats serves the wired follower's counter snapshot; without a
// follower the endpoint does not exist.
func (s *Server) handleWatchStats(w http.ResponseWriter, r *http.Request) {
	fn := s.watchStatsFn()
	if fn == nil {
		writeError(w, http.StatusNotFound, "no chain follower attached")
		return
	}
	writeJSON(w, http.StatusOK, fn())
}

// The Content-Type values, each one slice shared by every response.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// bodies recycles the buffers verdict bodies are appended into.
var bodies = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledBody is the largest buffer put back into bodies: a big batch's
// body is left to the collector rather than held by the pool.
const maxPooledBody = 64 << 10

func getBody() *[]byte { return bodies.Get().(*[]byte) }

func putBody(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		*b = (*b)[:0]
		bodies.Put(b)
	}
}

// writeBody sends body with status 200 and a JSON Content-Type, in one
// Write, and returns the buffer to the pool.
func writeBody(w http.ResponseWriter, body *[]byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(*body)
	putBody(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "shards": s.cfg.Shards})
}

// addrParam parses the addr query parameter. A query that is exactly
// addr=value, the value holding nothing url.ParseQuery would split at or
// unescape, is read in place; any other goes through URL.Query.
func addrParam(r *http.Request) (etypes.Address, error) {
	raw, ok := strings.CutPrefix(r.URL.RawQuery, "addr=")
	if !ok || strings.ContainsAny(raw, "&%+;") {
		raw = r.URL.Query().Get("addr")
	}
	if raw == "" {
		return etypes.Address{}, fmt.Errorf("missing addr parameter")
	}
	return etypes.HexToAddress(raw)
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	it, err := s.Lookup(addr)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	body := getBody()
	*body = append(appendVerdict(*body, it.Report), '\n')
	writeBody(w, body)
}

// batchRequest is the body of /v1/verdicts and /v1/scan.
type batchRequest struct {
	Addresses []string `json:"addresses"`
}

// maxBatch bounds one batch request.
const maxBatch = 65536

// parseBatch decodes and validates a batch body.
func parseBatch(r *http.Request) ([]etypes.Address, error) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad body: %w", err)
	}
	if len(req.Addresses) == 0 {
		return nil, fmt.Errorf("empty address list")
	}
	if len(req.Addresses) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds the %d-address limit", len(req.Addresses), maxBatch)
	}
	out := make([]etypes.Address, 0, len(req.Addresses))
	for _, raw := range req.Addresses {
		a, err := etypes.HexToAddress(raw)
		if err != nil {
			return nil, fmt.Errorf("bad address %q: %w", raw, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// lookupAll looks a batch up concurrently and returns the items in request
// order (nil error entries where lookups succeeded).
func (s *Server) lookupAll(addrs []etypes.Address) ([]proxion.Item, []error) {
	items := make([]proxion.Item, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, a := range addrs {
		wg.Add(1)
		go func(i int, a etypes.Address) {
			defer wg.Done()
			items[i], errs[i] = s.Lookup(a)
		}(i, a)
	}
	wg.Wait()
	return items, errs
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	addrs, err := parseBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	items, errs := s.lookupAll(addrs)
	body := getBody()
	b := append(*body, `{"verdicts":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		rep := items[i].Report
		if errs[i] != nil {
			rep = proxion.Report{Address: addrs[i], Reason: "error: " + errs[i].Error()}
		}
		b = appendVerdict(b, rep)
	}
	*body = append(b, "]}\n"...)
	writeBody(w, body)
}

// handleScan streams verdicts as NDJSON, one line per address, flushed as
// each analysis lands — the bulk interface for driving large scans
// through the service without buffering the whole response.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	addrs, err := parseBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header()["Content-Type"] = ndjsonContentType
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	body := getBody()
	defer putBody(body)

	// Dispatch everything up front (the server coalesces and bounds the
	// analyses), then emit in request order as results land.
	type slot struct {
		it  proxion.Item
		err error
	}
	results := make([]chan slot, len(addrs))
	for i, a := range addrs {
		results[i] = make(chan slot, 1)
		go func(ch chan slot, a etypes.Address) {
			it, err := s.Lookup(a)
			ch <- slot{it: it, err: err}
		}(results[i], a)
	}
	for i := range results {
		res := <-results[i]
		b := (*body)[:0]
		if res.err != nil {
			b = appendScanError(b, addrs[i], res.err)
		} else {
			b = appendVerdict(b, res.it.Report)
		}
		*body = append(b, '\n')
		w.Write(*body)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// appendScanError appends the /v1/scan line of a failed lookup: the JSON
// of map[string]string{"address": addr.Hex(), "error": err.Error()}.
func appendScanError(dst []byte, addr etypes.Address, err error) []byte {
	dst = append(dst, `{"address":`...)
	dst = appendHex(dst, addr[:])
	dst = append(dst, `,"error":`...)
	dst = appendJSONString(dst, err.Error())
	return append(dst, '}')
}

func (s *Server) handleCollisions(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	it, err := s.Lookup(addr)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, collisionsOf(it))
}

// handleStatic serves the static analysis of one contract's bytecode. It
// never enters the engine: the code is read through the server's node
// surface and analyzed without emulation, so it also works for contracts
// the dynamic probe cannot resolve.
func (s *Server) handleStatic(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	var code []byte
	if re := chain.CaptureReadError(func() { code = s.cfg.Reader.Code(addr) }); re != nil {
		writeError(w, http.StatusServiceUnavailable, "code read failed: %v", re)
		return
	}
	if len(code) == 0 {
		writeError(w, http.StatusNotFound, "no code at %s", addr.Hex())
		return
	}
	writeJSON(w, http.StatusOK, staticReportOf(addr, static.Analyze(code)))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
