package served

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"ipra/internal/wire"
)

// codecRequests cover every BuildRequest field, each at its zero value in
// one request and set in another.
func codecRequests() []*BuildRequest {
	return []*BuildRequest{
		{Config: "L2", Sources: []Source{{Name: "m.mc", Text: "int main() { return 0; }"}}},
		{Config: "B", Strategy: "tiling", Verify: true, Trace: true,
			Sources: []Source{
				{Name: "a.mc", Text: "int f() { return 1; }\n"},
				{Name: "empty.mc", Text: ""},
				{Name: "main.mc", Text: "int f();\nint main() { return f(); }\n"},
			}},
	}
}

// codecResponses cover every BuildResponse field: Incremental nil, set,
// and set to its zero value; Trace empty and non-empty.
func codecResponses() []*BuildResponse {
	return []*BuildResponse{
		{RequestID: 1, Config: "L2", Exe: []byte("exe"), Instructions: 3, ElapsedMS: 0.25},
		{RequestID: 1 << 40, Config: "C", Exe: []byte{0, 1, 2, 0xff}, Instructions: 120,
			Dedup: true, ResultCached: true,
			Incremental: &IncrementalSummary{StateReset: true, Phase1Rebuilds: 2, Phase2Rebuilds: 1},
			ElapsedMS:   12.5, Trace: json.RawMessage(`{"traceEvents":[]}`), DirectiveHash: "0123abcd"},
		{Incremental: &IncrementalSummary{}},
	}
}

// TestBuildCodecRoundTrip: every field survives the build-request and
// build-response codecs, and a decoded value re-encodes to its bytes.
func TestBuildCodecRoundTrip(t *testing.T) {
	for i, want := range codecRequests() {
		data := want.encode()
		got, err := decodeBuildRequest(data)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: decoded %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.encode(), data) {
			t.Errorf("request %d does not re-encode to its bytes", i)
		}
	}
	for i, want := range codecResponses() {
		data := want.encode()
		got, err := decodeBuildResponse(data)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d: decoded %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.encode(), data) {
			t.Errorf("response %d does not re-encode to its bytes", i)
		}
	}
}

// TestBuildResponseV2Rejected: a build-response v2 body, which carried
// the module count and the request's counters, is an older version.
func TestBuildResponseV2Rejected(t *testing.T) {
	e := wire.NewEncoder(buildResponseKind, 2)
	e.U(1)
	e.Str("C")
	e.U(3) // modules
	e.Bytes([]byte("exe"))
	e.U(3)
	e.Bool(false)
	e.Bool(false)
	e.Bool(false)
	e.U(1) // one counter
	e.Str("cache.hits")
	e.I(2)
	e.F64(0.5)
	e.Bytes(nil)
	e.Str("")
	if _, err := decodeBuildResponse(e.Finish()); !errors.Is(err, wire.ErrOldVersion) {
		t.Errorf("a v2 reply: err = %v, want wire.ErrOldVersion", err)
	}
}

// TestBuildCodecRejectsNonCanonical: the wire framing reads only the
// string table and then the body, and a bool byte above 1 reads as true;
// a build body with another section is an error, and one with such a
// bool is refused, so each value has exactly one encoding.
func TestBuildCodecRejectsNonCanonical(t *testing.T) {
	data := codecRequests()[0].encode()
	extra := binary.AppendUvarint(bytes.Clone(data), 9) // section id 9, empty
	extra = binary.AppendUvarint(extra, 0)
	if _, err := decodeBuildRequest(extra); err == nil {
		t.Error("a request with an unknown section decoded")
	}
	// The one byte in which these two encodings differ is Dedup's.
	plain := (&BuildResponse{Config: "C"}).encode()
	dedup := (&BuildResponse{Config: "C", Dedup: true}).encode()
	i := 0
	for plain[i] == dedup[i] {
		i++
	}
	dedup[i] = 2
	if _, err := decodeBuildResponse(dedup); !errors.Is(err, errNotCanonical) {
		t.Errorf("response with a bool byte of 2: err = %v, want errNotCanonical", err)
	}
}

// rawSection is one section of a hand-assembled wire file.
type rawSection struct {
	id      uint64
	payload []byte
}

// rawFile assembles a wire file from its sections, in the order given.
func rawFile(kind string, version uint64, sections ...rawSection) []byte {
	out := []byte("ipra-wire/1\n")
	out = binary.AppendUvarint(out, uint64(len(kind)))
	out = append(out, kind...)
	out = binary.AppendUvarint(out, version)
	for _, s := range sections {
		out = binary.AppendUvarint(out, s.id)
		out = binary.AppendUvarint(out, uint64(len(s.payload)))
		out = append(out, s.payload...)
	}
	return out
}

// rawTable is a string-table payload listing strs in order.
func rawTable(strs ...string) []byte {
	out := binary.AppendUvarint(nil, uint64(len(strs)))
	for _, s := range strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// uv is v's uvarint; long is v's uvarint with a redundant continuation
// byte, which decodes to v all the same.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func long(v uint64) []byte {
	b := uv(v)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// namedBody is one hand-assembled body and what is odd about it.
type namedBody struct {
	name string
	data []byte
}

// nonCanonical builds one body for each way a body that decodes can
// differ from the encoding of what it decodes to. The request cases vary
// the build-request of codecRequests()[0] — config "L2", strategy "", one
// source — and the reply cases the build-response of config "C" and
// nothing else. Each list opens with the canonical body its parts
// assemble, which TestNonCanonicalBodiesRejected checks against the
// encoder's bytes. misframed are that request with its sections
// rearranged, which the wire framing rejects before the body is read.
func nonCanonical() (requests, replies, misframed []namedBody) {
	text := codecRequests()[0].Sources[0].Text
	req := func(table []byte, body ...[]byte) []byte {
		return rawFile(buildRequestKind, buildRequestVersion, rawSection{1, table}, rawSection{2, cat(body...)})
	}
	table := rawTable("L2", "", "m.mc")
	src := cat(uv(2), uv(uint64(len(text))), []byte(text))
	requests = []namedBody{
		{"canonical", req(table, uv(0), uv(1), []byte{0, 0}, uv(1), src)},
		{"long count", req(table, uv(0), uv(1), []byte{0, 0}, long(1), src)},
		{"long length", req(table, uv(0), uv(1), []byte{0, 0}, uv(1), uv(2), long(uint64(len(text))), []byte(text))},
		{"long reference", req(table, long(0), uv(1), []byte{0, 0}, uv(1), src)},
		{"bool byte 2", req(table, uv(0), uv(1), []byte{2, 0}, uv(1), src)},
		{"unreferenced string", req(rawTable("L2", "", "m.mc", "x.mc"), uv(0), uv(1), []byte{0, 0}, uv(1), src)},
		{"repeated string", req(rawTable("L2", "", "L2"), uv(0), uv(1), []byte{0, 0}, uv(1), uv(2), src[1:])},
		{"strings out of order", req(rawTable("", "L2", "m.mc"), uv(1), uv(0), []byte{0, 0}, uv(1), src)},
	}
	misframed = []namedBody{
		{"unknown section", cat(req(table, uv(0), uv(1), []byte{0, 0}, uv(1), src), uv(9), uv(0))},
		{"sections swapped", rawFile(buildRequestKind, buildRequestVersion,
			rawSection{2, cat(uv(0), uv(1), []byte{0, 0}, uv(1), src)}, rawSection{1, table})},
	}
	// A reply's table is "C", then "" (the directive hash).
	reply := func(exeLen, bools []byte) []byte {
		// RequestID 0, Config "C", the Exe's length and no bytes, 0
		// instructions, the three bools, ElapsedMS 0, no Trace,
		// DirectiveHash "".
		body := cat(uv(0), uv(0), exeLen, uv(0), bools, make([]byte, 8), uv(0), uv(1))
		return rawFile(buildResponseKind, buildResponseVersion, rawSection{1, rawTable("C", "")}, rawSection{2, body})
	}
	replies = []namedBody{
		{"canonical", reply(uv(0), []byte{0, 0, 0})},
		{"long length", reply(long(0), []byte{0, 0, 0})},
		{"bool byte 2", reply(uv(0), []byte{2, 0, 0})},
	}
	return requests, replies, misframed
}

// TestNonCanonicalBodiesRejected: every body of nonCanonical but the
// canonical one in each list decodes to a value that encodes to other
// bytes, and comes back as errNotCanonical; a request body does so
// through the /v1/build handler as 400 bad-request, before admission. A
// misframed request is a 400 bad-request as well.
func TestNonCanonicalBodiesRejected(t *testing.T) {
	requests, replies, misframed := nonCanonical()
	if !bytes.Equal(requests[0].data, codecRequests()[0].encode()) {
		t.Fatal("the hand-assembled canonical request differs from the encoder's")
	}
	if !bytes.Equal(replies[0].data, (&BuildResponse{Config: "C"}).encode()) {
		t.Fatal("the hand-assembled canonical reply differs from the encoder's")
	}
	srv := stubbedServer()
	handler := srv.Handler()
	for _, c := range requests[1:] {
		if _, err := decodeBuildRequest(c.data); !errors.Is(err, errNotCanonical) {
			t.Errorf("request, %s: err = %v, want errNotCanonical", c.name, err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(c.data)))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest ||
			er.Reason != ReasonBadRequest || !strings.Contains(er.Error, errNotCanonical.Error()) {
			t.Errorf("request, %s: handler answered %d %s, want 400 %q naming the canonical form", c.name, rec.Code, rec.Body, ReasonBadRequest)
		}
	}
	for _, c := range misframed {
		if _, err := decodeBuildRequest(c.data); err == nil {
			t.Errorf("request, %s: decoded", c.name)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(c.data)))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest || er.Reason != ReasonBadRequest {
			t.Errorf("request, %s: handler answered %d %s, want 400 %q", c.name, rec.Code, rec.Body, ReasonBadRequest)
		}
	}
	for _, c := range replies[1:] {
		if _, err := decodeBuildResponse(c.data); !errors.Is(err, errNotCanonical) {
			t.Errorf("reply, %s: err = %v, want errNotCanonical", c.name, err)
		}
	}
	if n := srv.Counters()["served.requests"]; n != 0 {
		t.Errorf("served.requests = %d after only non-canonical bodies, want 0", n)
	}
}

// TestReadBodyBoundsPresize: a body is read into one buffer sized from
// its declared length, but a declared length reserves at most maxPresize
// bytes before they arrive.
func TestReadBodyBoundsPresize(t *testing.T) {
	for _, declared := range []int64{-1, 0, 5, 1 << 40} {
		got, err := readBody(strings.NewReader("hello"), declared)
		if err != nil || string(got) != "hello" {
			t.Fatalf("declared %d: read %q, %v", declared, got, err)
		}
		if cap(got) > maxPresize+bytes.MinRead {
			t.Errorf("declared %d: a 5-byte body took a %d-byte buffer", declared, cap(got))
		}
	}
	body := bytes.Repeat([]byte("x"), 100_000)
	got, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read %d bytes, %v; want the %d-byte body", len(got), err, len(body))
	}
	if cap(got) != len(body)+bytes.MinRead {
		t.Errorf("a body of its declared length regrew its buffer to %d bytes", cap(got))
	}
}

// stubbedServer is a daemon whose compiler answers every admitted request
// with a fixed small response, so a handler test exercises decoding,
// validation, admission and the error mapping without compiling.
func stubbedServer() *Server {
	srv := New(Options{Jobs: 1})
	srv.buildFn = func(_ context.Context, j *job) (*BuildResponse, error) {
		return &BuildResponse{Config: j.req.Config, Exe: []byte("exe")}, nil
	}
	return srv
}

// jsonBuildBody is a /v1/build body as clients sent it before the wire
// codec.
const jsonBuildBody = `{"config":"L2","sources":[{"name":"m.mc","text":"int main() { return 0; }"}]}`

// FuzzBuildRequestDecode: any bytes decode to a request or an error,
// never a panic, and an accepted request re-encodes to the same bytes.
// Each input is also posted to the /v1/build handler, which must answer
// without a panic or a 500. The handler's compiler is stubbed; the
// compiler's own input is fuzzed by FuzzPhase1.
func FuzzBuildRequestDecode(f *testing.F) {
	for _, req := range codecRequests() {
		data := req.encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	requests, _, misframed := nonCanonical()
	for _, c := range append(requests, misframed...) {
		f.Add(c.data)
	}
	f.Add([]byte(jsonBuildBody))
	f.Add([]byte{})
	handler := stubbedServer().Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeBuildRequest(data); err == nil && !bytes.Equal(req.encode(), data) {
			t.Fatal("an accepted request does not re-encode to its bytes")
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(data)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("handler answered 500: %s", rec.Body)
		}
	})
}

// FuzzBuildResponseDecode: any bytes decode to a response or an error,
// never a panic, and an accepted response re-encodes to the same bytes.
func FuzzBuildResponseDecode(f *testing.F) {
	for _, resp := range codecResponses() {
		data := resp.encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	_, replies, _ := nonCanonical()
	for _, c := range replies {
		f.Add(c.data)
	}
	f.Add([]byte(`{"requestId":1,"exe":"ZXhl"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if resp, err := decodeBuildResponse(data); err == nil && !bytes.Equal(resp.encode(), data) {
			t.Fatal("an accepted response does not re-encode to its bytes")
		}
	})
}

// TestServedRejectsJSONAndTruncatedBodies: /v1/build reads only a
// build-request v2 artifact. A JSON body, which a client from before the
// wire codec sends, a v1 artifact, which carried a training-run budget,
// and a truncated artifact each come back through the Client as 400
// bad-request naming the fault, and none reaches admission.
func TestServedRejectsJSONAndTruncatedBodies(t *testing.T) {
	srv := stubbedServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	whole := codecRequests()[0].encode()
	// The v1 layout: config, strategy, budget, verify, trace, sources.
	v1 := wire.NewEncoder(buildRequestKind, 1)
	v1.Str("L2")
	v1.Str("")
	v1.U(100_000_000)
	v1.Bool(false)
	v1.Bool(false)
	v1.U(1)
	v1.Str("m.mc")
	v1.Text("int main() { return 0; }")
	for name, c := range map[string]struct {
		body []byte
		want string
	}{
		"json":      {[]byte(jsonBuildBody), "not a wire file"},
		"v1":        {v1.Finish(), "older version (got v1, want v2)"},
		"truncated": {whole[:len(whole)-1], "wire:"},
	} {
		_, err := client.roundTrip(context.Background(), http.MethodPost, "/v1/build", c.body)
		se, ok := err.(*StatusError)
		if !ok || se.Code != http.StatusBadRequest || se.Reason != ReasonBadRequest || !strings.Contains(se.Message, c.want) {
			t.Errorf("%s body: got %v, want a 400 %q StatusError naming %q", name, err, ReasonBadRequest, c.want)
		}
	}
	if n := srv.Counters()["served.requests"]; n != 0 {
		t.Errorf("served.requests = %d after three malformed bodies, want 0", n)
	}
	if _, err := client.Build(context.Background(), codecRequests()[0]); err != nil {
		t.Errorf("a well-formed request after them: %v", err)
	}
}

// TestServedErrorRepliesCarryReason: the error replies that once went out
// without a machine-readable Reason now carry one.
func TestServedErrorRepliesCarryReason(t *testing.T) {
	srv := stubbedServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	expect := func(what string, err error, code int, reason string) {
		t.Helper()
		if se, ok := err.(*StatusError); !ok || se.Code != code || se.Reason != reason {
			t.Errorf("%s: got %v, want a %d %q StatusError", what, err, code, reason)
		}
	}
	_, err = client.roundTrip(ctx, http.MethodGet, "/v1/build", nil)
	expect("GET /v1/build", err, http.StatusMethodNotAllowed, ReasonBadRequest)
	_, err = client.ProfileSnapshot(ctx, "0123456789abcdef")
	expect("snapshot of an unknown program", err, http.StatusNotFound, ReasonNotFound)

	// A body that fails mid-read.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build",
		iotest.ErrReader(errors.New("connection reset"))))
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest || er.Reason != ReasonBadRequest {
		t.Errorf("unreadable body: %d %s, want 400 %q", rec.Code, rec.Body, ReasonBadRequest)
	}
}
