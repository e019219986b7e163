// The wire protocol of the build service, carried over HTTP on a Unix
// socket (the default) or TCP. Build requests and replies are wire
// artifacts (internal/wire) of the kinds "build-request" (version 2) and
// "build-response" (version 2): source text and the executable travel as
// raw length-prefixed bytes, so neither is escaped or base64-encoded.
// Profiles travel both ways as the one internal/profagg artifact, the
// "profagg-snapshot". Everything else is JSON.
//
// Endpoints:
//
//	POST /v1/build   compile a source set under a named configuration;
//	                 the body is an encoded BuildRequest, the reply an
//	                 encoded BuildResponse
//	POST /v1/profile wire-encoded profagg.Aggregate body, one fleet
//	                 generation's snapshot; merges its call counts and
//	                 replies with a JSON ProfileIngestResponse
//	GET  /v1/profile/snapshot?program=KEY
//	                 the program's wire-encoded aggregate snapshot
//	GET  /v1/stats   JSON ServerStats: telemetry counters plus live gauges
//	GET  /v1/health  JSON; 200 once the server accepts work, 503 while
//	                 draining
//
// A program KEY is what BuildRequest.ProgramKey returns: 16 lowercase hex
// digits. Every error reply, on every endpoint, is a JSON errorResponse
// that carries a machine-readable Reason alongside the human-readable
// message, and the status code classifies the fault: 400 for a malformed
// request (a /v1/build body that is not a build-request v2 artifact, JSON
// included), 404 with Reason "not-found" for a snapshot the daemon does
// not hold, 422 for a compile failure in the submitted program, 500 for a
// server-side fault, 503 with Reason "saturated" (plus Retry-After) for a
// full admission queue and Reason "draining" for a shutdown in progress —
// only the former is worth retrying.
//
// A BuildResponse's Exe field is the canonical parv executable encoding
// (parv.EncodeExecutable), so a daemon-served build can be compared
// byte-for-byte against a local one with cmp. In a response Client.Build
// decoded, Exe is a slice of the reply body it read, not a copy: the
// caller owns it, and holding it holds that body.
//
// Each build body crosses the codec with one copy per side. An encoder
// writes the sources or the executable into a buffer that has room for
// the wire header ahead of the body and frames the body in place; a
// decoder copies each source text into its string, reads the executable
// in place, and proves the body canonical by comparing it, field by
// field, with what its decoded value would encode to (wire.Checker).
//
// A BuildResponse's ElapsedMS runs from the start of Server.Build to just
// before the reply is encoded. Reading and decoding the request body, and
// encoding and writing the reply, fall outside it: a client that
// subtracts ElapsedMS from its round trip counts them as transport.
package served

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"

	"ipra"
	"ipra/internal/wire"
)

// Source is one MiniC module in a build request.
type Source struct {
	Name string
	Text string
}

// BuildRequest asks the daemon for one whole-program compile.
type BuildRequest struct {
	// Config names a preset from the ipra registry: L2 or Table 4
	// column A-F.
	Config string
	// Strategy names the allocation strategy ("" for the preset's
	// default), case-insensitively. It participates in both the
	// request key and the build-directory identity.
	Strategy string
	// Sources is the complete module set of the program.
	Sources []Source
	// Verify runs the whole-program allocation verifier over the
	// analyzer's output and fails the request on violations.
	Verify bool
	// Trace asks for this request's Chrome trace-event JSON in the
	// response (per-request telemetry is always collected; the trace
	// export is opt-in because it is large).
	Trace bool
}

// clone copies the request for retention: the profile store keeps the
// program's last request as its retrain context.
func (r *BuildRequest) clone() *BuildRequest {
	cp := *r
	cp.Sources = append([]Source(nil), r.Sources...)
	return &cp
}

// IncrementalSummary is the rebuild record of a request served from a
// persistent per-program build directory.
type IncrementalSummary struct {
	// StateReset is true when the stored build state was rejected
	// (toolchain fingerprint mismatch or corruption) and the program
	// was rebuilt from scratch.
	StateReset     bool
	Phase1Rebuilds int
	Phase2Rebuilds int
}

// BuildResponse is the daemon's reply to one BuildRequest.
type BuildResponse struct {
	// RequestID identifies the request in the daemon's log and trace.
	RequestID uint64
	Config    string
	// Exe is the canonical executable image (parv encoding);
	// byte-identical to a local build of the same sources and config.
	// Client.Build returns it as a slice of the reply body it read, which
	// no one else holds: the caller may keep or modify it.
	Exe []byte
	// Instructions is the executable's code length, a cheap sanity
	// check clients print without decoding Exe.
	Instructions int
	// Dedup is true when this request shared another identical build
	// that was still running instead of compiling.
	Dedup bool
	// ResultCached is true when the response was served whole from an
	// identical build that had already finished.
	ResultCached bool
	// Incremental summarizes build-dir reuse; nil for stateless builds
	// and for responses shared from another identical request's build.
	Incremental *IncrementalSummary
	// ElapsedMS is the server-side wall time of the request, from the
	// start of Server.Build to just before the reply is encoded: the
	// request body's read and decode and the reply's encode and write
	// are not in it. Shared (dedup) responses carry the leader's.
	ElapsedMS float64
	// Trace is the request's Chrome trace-event JSON when asked for.
	Trace json.RawMessage
	// DirectiveHash identifies the program database the executable was
	// compiled against ("" for Level2). Profiled clients stamp it into
	// the records they stream to /v1/profile, which is how the daemon
	// rejects counts measured under a stale allocation.
	DirectiveHash string
}

// ProfileIngestResponse is the /v1/profile reply.
type ProfileIngestResponse struct {
	// Accepted is false when the record was rejected; Reason then names
	// the cause: "stale-fingerprint", "stale-directives", or
	// "unknown-program" for a program this daemon holds no drift model or
	// snapshot of (one never built here under B or F).
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Runs and Records are the aggregate totals after the merge.
	Runs    uint64 `json:"runs"`
	Records uint64 `json:"records"`
	// ModelReady reports a drift model was available to check against.
	ModelReady bool `json:"modelReady"`
	// Drifted reports that analyzing under the merged aggregate would
	// change the program's directives; Reanalyzed that the daemon rebuilt
	// the program from the aggregate in response, with DirectiveHash
	// identifying the new allocation the fleet should roll onto.
	Drifted       bool   `json:"drifted"`
	Reanalyzed    bool   `json:"reanalyzed"`
	DirectiveHash string `json:"directiveHash,omitempty"`
}

// ServerStats is the /v1/stats reply.
type ServerStats struct {
	// Fingerprint is the toolchain fingerprint guarding every cache and
	// build directory this daemon serves from.
	Fingerprint string `json:"fingerprint"`
	// Counters are the server-lifetime telemetry totals: the served.*
	// family (requests, builds, dedup_hits, result_hits, rejected,
	// errors) plus every per-request counter merged in.
	Counters map[string]int64 `json:"counters"`
	// Gauges are live values: served.queue_depth (admitted requests
	// waiting for a build slot), served.running (builds executing),
	// served.inflight (requests inside the server).
	Gauges map[string]int64 `json:"gauges"`
	// UptimeSec is time since the server started accepting work.
	UptimeSec float64 `json:"uptimeSec"`
}

// errorResponse is the JSON body of a non-200 reply.
type errorResponse struct {
	Error string `json:"error"`
	// Reason classifies the fault machine-readably: "saturated" (queue
	// full, retry after RetryAfterSec), "draining" (shutdown, do not
	// retry), "bad-request", "not-found", "compile", "internal".
	Reason string `json:"reason,omitempty"`
	// RetryAfterSec accompanies 503 queue-full rejections.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
}

// Machine-readable errorResponse.Reason values.
const (
	ReasonSaturated  = "saturated"
	ReasonDraining   = "draining"
	ReasonBadRequest = "bad-request"
	ReasonNotFound   = "not-found"
	ReasonCompile    = "compile"
	ReasonInternal   = "internal"
)

// Validate rejects malformed requests before any work is admitted.
func (r *BuildRequest) Validate() error {
	if r.Config == "" {
		return fmt.Errorf("served: request has no config")
	}
	if len(r.Sources) == 0 {
		return fmt.Errorf("served: request has no sources")
	}
	seen := make(map[string]bool, len(r.Sources))
	for _, s := range r.Sources {
		if s.Name == "" {
			return fmt.Errorf("served: request has an unnamed source")
		}
		if seen[s.Name] {
			return fmt.Errorf("served: duplicate source %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// strategyKey is the strategy's contribution to both keys: lowercased,
// with the empty string folded onto the default strategy so requests
// that spell the default and requests that omit it share keys (and thus
// deduplicate against each other and reuse one build directory).
func (r *BuildRequest) strategyKey() string {
	s := strings.ToLower(r.Strategy)
	if s == "" {
		return ipra.DefaultStrategy
	}
	return s
}

// Key fingerprints a request for the daemon's request table: two
// requests share a key exactly when an identical build under an identical
// toolchain would produce identical responses, the trace included. The
// toolchain fingerprint is part of the key so a daemon can never serve a
// result computed by different compiler semantics.
func (r *BuildRequest) Key(fingerprint string) string {
	h := sha256.New()
	sep := []byte{0}
	writeField := func(s string) {
		// The hash only reads what it is given, so each string is hashed
		// where it lies rather than copied into a []byte first.
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
		h.Write(sep)
	}
	writeField(fingerprint)
	writeField(strings.ToUpper(r.Config))
	writeField(r.strategyKey())
	h.Write([]byte{boolByte(r.Verify), boolByte(r.Trace)})
	for _, s := range r.Sources {
		writeField(s.Name)
		writeField(s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// boolByte is the byte Key hashes for a flag.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// ProgramKey names the request's program identity — configuration plus
// the sorted module name set, independent of source contents — which is
// what a persistent build directory is keyed by: edits to a module's
// text map to the same directory, so the incremental store serves warm
// minimal rebuilds across versions.
func (r *BuildRequest) ProgramKey() string {
	names := make([]string, len(r.Sources))
	for i, s := range r.Sources {
		names[i] = s.Name
	}
	sort.Strings(names)
	h := sha256.New()
	io.WriteString(h, strings.ToUpper(r.Config))
	h.Write([]byte{0})
	io.WriteString(h, r.strategyKey())
	h.Write([]byte{0})
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// validProgramKey reports whether s has the shape ProgramKey returns: 16
// lowercase hex digits. The daemon names a program's state directory by
// its key, so a key from the network is checked before it reaches a path.
func validProgramKey(s string) bool {
	return len(s) == 16 && strings.Trim(s, "0123456789abcdef") == ""
}

// The /v1/build bodies are wire artifacts of these kinds. build-request
// v2 dropped the training-run budget, which decides no output byte;
// build-response v2 dropped the analyzer fallback from the rebuild record,
// and v3 the module count and the request's counters, which no client
// read (the server's counters are at /v1/stats).
const (
	buildRequestKind     = "build-request"
	buildRequestVersion  = 2
	buildResponseKind    = "build-response"
	buildResponseVersion = 3
)

// errNotCanonical rejects a body that decodes but is not the encoding of
// what it decodes to: a varint with a redundant byte, a bool byte other
// than 0 or 1, an unreferenced or repeated string. Each value has
// one encoding, so the codec's fuzz tests can check that an accepted body
// re-encodes to the same bytes.
var errNotCanonical = errors.New("served: body is not in canonical wire form")

// fieldWriter is what a build body's fields are written to: a
// wire.Encoder encodes them, and a wire.Checker compares them with a
// body that decoded, so one function fixes each body's layout for both.
type fieldWriter interface {
	U(uint64)
	I(int64)
	Bool(bool)
	F64(float64)
	Str(string)
	Text(string)
	Bytes([]byte)
}

// writeFields writes the request's build-request body.
func (r *BuildRequest) writeFields(w fieldWriter) {
	w.Str(r.Config)
	w.Str(r.Strategy)
	w.Bool(r.Verify)
	w.Bool(r.Trace)
	w.U(uint64(len(r.Sources)))
	for _, src := range r.Sources {
		w.Str(src.Name)
		w.Text(src.Text)
	}
}

// encode serializes the request as a build-request artifact.
func (r *BuildRequest) encode() []byte {
	e := wire.NewEncoder(buildRequestKind, buildRequestVersion)
	// The sources' text, plus every varint at its widest; the string
	// table holds the config, the strategy and the source names.
	size := 4 * binary.MaxVarintLen64
	strs := len(r.Config) + len(r.Strategy) + 3*binary.MaxVarintLen64
	for _, src := range r.Sources {
		size += len(src.Text) + 2*binary.MaxVarintLen64
		strs += len(src.Name) + binary.MaxVarintLen64
	}
	e.Grow(size, strs)
	r.writeFields(e)
	return e.Finish()
}

// decodeBuildRequest parses a build-request artifact.
func decodeBuildRequest(data []byte) (*BuildRequest, error) {
	d, err := wire.NewDecoder(data, buildRequestKind, buildRequestVersion)
	if err != nil {
		return nil, err
	}
	r := &BuildRequest{
		Config:   d.Str(),
		Strategy: d.Str(),
		Verify:   d.Bool(),
		Trace:    d.Bool(),
	}
	if n := d.Count(2); n > 0 {
		r.Sources = make([]Source, n)
		for i := range r.Sources {
			r.Sources[i] = Source{Name: d.Str(), Text: d.Text()}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	c := wire.NewChecker(data, buildRequestKind, buildRequestVersion)
	r.writeFields(c)
	if !c.Finish() {
		return nil, errNotCanonical
	}
	return r, nil
}

// writeFields writes the response's build-response body.
func (r *BuildResponse) writeFields(w fieldWriter) {
	w.U(r.RequestID)
	w.Str(r.Config)
	w.Bytes(r.Exe)
	w.U(uint64(r.Instructions))
	w.Bool(r.Dedup)
	w.Bool(r.ResultCached)
	w.Bool(r.Incremental != nil)
	if inc := r.Incremental; inc != nil {
		w.Bool(inc.StateReset)
		w.U(uint64(inc.Phase1Rebuilds))
		w.U(uint64(inc.Phase2Rebuilds))
	}
	w.F64(r.ElapsedMS)
	w.Bytes(r.Trace)
	w.Str(r.DirectiveHash)
}

// encode serializes the response as a build-response artifact.
func (r *BuildResponse) encode() []byte {
	e := wire.NewEncoder(buildResponseKind, buildResponseVersion)
	// The executable and the trace, plus every varint at its widest; the
	// string table holds the config and the directive hash.
	strs := len(r.Config) + len(r.DirectiveHash) + 3*binary.MaxVarintLen64
	e.Grow(len(r.Exe)+len(r.Trace)+binary.MaxVarintLen64*16, strs)
	r.writeFields(e)
	return e.Finish()
}

// decodeBuildResponse parses a build-response artifact. The decoded Exe
// is a slice of data.
func decodeBuildResponse(data []byte) (*BuildResponse, error) {
	d, err := wire.NewDecoder(data, buildResponseKind, buildResponseVersion)
	if err != nil {
		return nil, err
	}
	r := &BuildResponse{
		RequestID:    d.U(),
		Config:       d.Str(),
		Exe:          d.BytesView(),
		Instructions: int(d.U()),
		Dedup:        d.Bool(),
		ResultCached: d.Bool(),
	}
	if d.Bool() {
		r.Incremental = &IncrementalSummary{
			StateReset:     d.Bool(),
			Phase1Rebuilds: int(d.U()),
			Phase2Rebuilds: int(d.U()),
		}
	}
	r.ElapsedMS = d.F64()
	r.Trace = d.Bytes()
	r.DirectiveHash = d.Str()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	c := wire.NewChecker(data, buildResponseKind, buildResponseVersion)
	r.writeFields(c)
	if !c.Finish() {
		return nil, errNotCanonical
	}
	return r, nil
}
