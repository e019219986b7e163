// Package wire implements the flat, versioned binary format shared by
// every persistent artifact in the pipeline (phase-1 cache entries,
// incremental build-dir records, object files, and executable images)
// and by the build daemon's request and reply bodies.
//
// A wire file is a fixed magic string, a kind tag with a per-kind format
// version, and two length-prefixed sections:
//
//	"ipra-wire/1\n"
//	kind    uvarint-length string  ("cache-entry", "object", ...)
//	version uvarint                (per-kind body format version)
//	strings 1, length uvarint, payload
//	body    2, length uvarint, payload
//
// The string table lists every distinct string once, deduplicated; the
// body refers to strings by table index. Nothing follows the body. A
// decoder rejects a file whose sections are not exactly the table and
// then the body: one missing, repeated, out of order or extra. Any change
// to the body layout of a kind must bump that kind's version, and
// decoders reject versions they were not built for.
//
// Scalars are uvarint/varint encoded; floats and bitset words are
// little-endian 64-bit values, bitsets written as their raw []uint64
// backing. Every collection length is bounds-checked against the bytes
// remaining before allocation, so a truncated or corrupt input produces an
// error — never a panic, never an attempt at a giant allocation. The
// encoding contains no maps and no iteration-order dependence: the same
// value always encodes to the same bytes, in any process, which is what
// lets the build system compare artifacts with a plain byte diff.
//
// Finish normally copies the body behind a freshly built header, into a
// buffer of exactly the file's size. An encoder that calls Grow first
// (the build daemon's request and reply bodies) gets its body allocated
// with room ahead of it, and Finish writes the header and string table
// into that room and returns the one buffer; a string table larger than
// the room Grow was promised falls back to the copy.
//
// A decoder accepts any body and string table that parse: a varint with
// redundant continuation bytes, a bool byte above 1, an unreferenced or
// repeated table string. A reader that must see each value in
// exactly one encoding proves a decoded file canonical with a Checker:
// it replays the field calls that would encode the decoded value and
// compares each with the file's bytes where they lie, then compares the
// header and string table those calls imply, so no second file is built.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// magic identifies a wire file; the trailing framing version covers the
// header and section layout itself (the per-kind version covers bodies).
const magic = "ipra-wire/1\n"

// Section identifiers, in the order a file holds them.
const (
	secStrings = 1
	secBody    = 2
)

// Encoder builds one wire file. Methods append to the body; Finish
// assembles the header, string table, and body into the final bytes.
type Encoder struct {
	kind    string
	version uint64
	body    []byte
	// frame is the buffer Grow allocated the body in, or nil: the body
	// starts at frame[len(frame)], and frame[:len(frame)] is the room
	// Finish writes the header and string table into.
	frame []byte
	idx   map[string]uint64
	tab   []string
}

// NewEncoder starts a wire file of the given kind and body version.
func NewEncoder(kind string, version uint64) *Encoder {
	return &Encoder{kind: kind, version: version, idx: make(map[string]uint64)}
}

// Grow reserves room for n more body bytes, so an encoder that knows its
// size up front (a large inline payload) fills one buffer instead of
// regrowing it. The buffer also has room ahead of the body for the
// header and a string table of up to strs bytes, so that Finish frames
// the body where it lies instead of copying it. Called before the first
// field, Grow copies nothing.
func (e *Encoder) Grow(n, strs int) {
	room := len(magic) + len(e.kind) + 5*binary.MaxVarintLen64 + strs
	e.frame = make([]byte, room, room+len(e.body)+n)
	e.body = append(e.frame[room:], e.body...)
}

// U appends an unsigned varint.
func (e *Encoder) U(v uint64) { e.body = binary.AppendUvarint(e.body, v) }

// I appends a signed (zigzag) varint.
func (e *Encoder) I(v int64) { e.body = binary.AppendVarint(e.body, v) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.body = append(e.body, b)
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.body = append(e.body, v) }

// F64 appends a float64 as its little-endian IEEE-754 bits.
func (e *Encoder) F64(v float64) {
	e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(v))
}

// Str appends a reference to s in the deduplicated string table.
func (e *Encoder) Str(s string) {
	i, ok := e.idx[s]
	if !ok {
		i = uint64(len(e.tab))
		e.idx[s] = i
		e.tab = append(e.tab, s)
	}
	e.U(i)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U(uint64(len(b)))
	e.body = append(e.body, b...)
}

// Text appends a length-prefixed string inline, as Bytes lays out a byte
// slice, bypassing the string table: the form for large text that occurs
// once, such as a module's source, which deduplication would only hash.
func (e *Encoder) Text(s string) {
	e.U(uint64(len(s)))
	e.body = append(e.body, s...)
}

// Words appends a length-prefixed []uint64 as raw little-endian words —
// the direct image of a bitset's backing array.
func (e *Encoder) Words(ws []uint64) {
	e.U(uint64(len(ws)))
	for _, w := range ws {
		e.body = binary.LittleEndian.AppendUint64(e.body, w)
	}
}

// Strs appends a length-prefixed list of string-table references.
func (e *Encoder) Strs(ss []string) {
	e.U(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Ints appends a length-prefixed list of non-negative ints as uvarints.
func (e *Encoder) Ints(vs []int) {
	e.U(uint64(len(vs)))
	for _, v := range vs {
		e.U(uint64(v))
	}
}

// Finish assembles and returns the complete wire file. When the body
// still lies in the buffer Grow reserved and the header fits the room
// ahead of it, the file is that buffer; otherwise the body is copied
// behind the header into a buffer of exactly the file's size.
func (e *Encoder) Finish() []byte {
	t := tableLen(e.tab)
	n := headLen(e.kind, e.version, t, len(e.body))
	// An append that outgrew the reserved buffer moved the body and
	// left a strictly larger capacity behind.
	room := len(e.frame)
	if n <= room && cap(e.body) == cap(e.frame)-room {
		out := appendHead(e.frame[room-n:room-n], e.kind, e.version, e.tab, t, len(e.body))
		return out[:n+len(e.body)]
	}
	out := appendHead(make([]byte, 0, n+len(e.body)), e.kind, e.version, e.tab, t, len(e.body))
	return append(out, e.body...)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// tableLen is the length of the string-table section's payload.
func tableLen(tab []string) int {
	n := uvarintLen(uint64(len(tab)))
	for _, s := range tab {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// headLen is the length of everything appendHead writes: the bytes of a
// wire file ahead of its body, for a string table of tabLen bytes.
func headLen(kind string, version uint64, tabLen, bodyLen int) int {
	return len(magic) + uvarintLen(uint64(len(kind))) + len(kind) + uvarintLen(version) +
		uvarintLen(secStrings) + uvarintLen(uint64(tabLen)) + tabLen +
		uvarintLen(secBody) + uvarintLen(uint64(bodyLen))
}

// appendHead appends the magic, kind, version, string-table section and
// body section header of a wire file whose table, tab, encodes to tabLen
// bytes and whose body is bodyLen bytes.
func appendHead(out []byte, kind string, version uint64, tab []string, tabLen, bodyLen int) []byte {
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(kind)))
	out = append(out, kind...)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, secStrings)
	out = binary.AppendUvarint(out, uint64(tabLen))
	out = binary.AppendUvarint(out, uint64(len(tab)))
	for _, s := range tab {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, secBody)
	return binary.AppendUvarint(out, uint64(bodyLen))
}

// ErrOldVersion is wrapped by NewDecoder's error for a file of the
// expected kind written under an older version of it, so a reader can
// tell an outdated artifact from a damaged one.
var ErrOldVersion = errors.New("older version")

// Decoder reads one wire file. Decoding errors are sticky: after the
// first, every method returns zero values, and Finish reports the error.
type Decoder struct {
	kind string
	body []byte
	tab  []string
	err  error
}

// NewDecoder parses the header and sections of data, verifying the magic,
// kind, and version. The returned decoder is positioned at the body.
func NewDecoder(data []byte, kind string, version uint64) (*Decoder, error) {
	strs, body, err := frame(data, kind, version)
	if err != nil {
		return nil, err
	}
	d := &Decoder{kind: kind, body: body}
	count, n := binary.Uvarint(strs)
	if n <= 0 || count > uint64(len(strs)) {
		return nil, d.corrupt("corrupt string table")
	}
	strs = strs[n:]
	d.tab = make([]string, count)
	for i := range d.tab {
		s, rest, ok := cutString(strs)
		if !ok {
			return nil, d.corrupt("corrupt string table")
		}
		d.tab[i], strs = s, rest
	}
	return d, nil
}

// frame checks the magic, kind and version of data and splits the rest
// into the string table's and the body's payloads, which must be its only
// sections, in that order.
func frame(data []byte, kind string, version uint64) (strs, body []byte, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("wire: not a wire file (want %s kind %q)", magic[:len(magic)-1], kind)
	}
	rest := data[len(magic):]
	gotKind, rest, ok := cutString(rest)
	if !ok {
		return nil, nil, fmt.Errorf("wire: truncated header (kind %q)", kind)
	}
	if gotKind != kind {
		return nil, nil, fmt.Errorf("wire: kind mismatch (got %q, want %q)", gotKind, kind)
	}
	gotVersion, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: truncated header (kind %q)", kind)
	}
	rest = rest[n:]
	if gotVersion < version {
		return nil, nil, fmt.Errorf("wire: %s is an %w (got v%d, want v%d)", kind, ErrOldVersion, gotVersion, version)
	}
	if gotVersion != version {
		return nil, nil, fmt.Errorf("wire: %s version mismatch (got v%d, want v%d)", kind, gotVersion, version)
	}
	var payloads [2][]byte
	for i, want := range [2]uint64{secStrings, secBody} {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wire: %s: missing section %d", kind, want)
		}
		if id != want {
			return nil, nil, fmt.Errorf("wire: %s: section %d where section %d belongs", kind, id, want)
		}
		rest = rest[n:]
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return nil, nil, fmt.Errorf("wire: %s: section %d length exceeds file", kind, want)
		}
		payloads[i], rest = rest[n:n+int(size)], rest[n+int(size):]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("wire: %s: %d bytes after the body", kind, len(rest))
	}
	return payloads[0], payloads[1], nil
}

// cutString reads one uvarint-length-prefixed string.
func cutString(b []byte) (string, []byte, bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", nil, false
	}
	return string(b[k : k+int(n)]), b[k+int(n):], true
}

func (d *Decoder) corrupt(msg string) error {
	return fmt.Errorf("wire: %s: %s", d.kind, msg)
}

func (d *Decoder) fail() { d.Fail("truncated or corrupt body") }

// U reads an unsigned varint.
func (d *Decoder) U() uint64 {
	v, n := binary.Uvarint(d.body)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.body = d.body[n:]
	return v
}

// I reads a signed varint.
func (d *Decoder) I() int64 {
	v, n := binary.Varint(d.body)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.body = d.body[n:]
	return v
}

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	if len(d.body) < 1 {
		d.fail()
		return false
	}
	v := d.body[0]
	d.body = d.body[1:]
	return v != 0
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.body) < 1 {
		d.fail()
		return 0
	}
	v := d.body[0]
	d.body = d.body[1:]
	return v
}

// F64 reads a little-endian float64.
func (d *Decoder) F64() float64 {
	if len(d.body) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.body))
	d.body = d.body[8:]
	return v
}

// Str reads a string-table reference.
func (d *Decoder) Str() string {
	i := d.U()
	if i >= uint64(len(d.tab)) {
		d.fail()
		return ""
	}
	return d.tab[i]
}

// Count reads a collection length and bounds it against the remaining
// body: a serialized element occupies at least elemSize bytes (pass 1 for
// varint-encoded elements), so a longer count is corruption — fail instead
// of attempting the allocation.
func (d *Decoder) Count(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := d.U()
	if n > uint64(len(d.body)/elemSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. The result is a private copy.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.body)
	d.body = d.body[n:]
	return out
}

// BytesView reads a length-prefixed byte slice in place: the result
// aliases the decoded file, so it stays valid, and keeps the file alive,
// for as long as the caller holds it. Its capacity ends with it, so an
// append copies instead of writing over the bytes that follow.
func (d *Decoder) BytesView() []byte {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := d.body[:n:n]
	d.body = d.body[n:]
	return out
}

// Text reads a length-prefixed inline string written by Encoder.Text.
func (d *Decoder) Text() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.body[:n])
	d.body = d.body[n:]
	return s
}

// Words reads a length-prefixed []uint64 written by Encoder.Words.
func (d *Decoder) Words() []uint64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.body)
		d.body = d.body[8:]
	}
	return out
}

// Strs reads a length-prefixed list of string-table references.
func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Ints reads a length-prefixed list of non-negative ints.
func (d *Decoder) Ints() []int {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.U())
	}
	return out
}

// Fail records msg as the sticky decode error, unless one is already
// set: the way a reader reports a value the format can carry but the
// decoded type cannot (an operation code out of range).
func (d *Decoder) Fail(msg string) {
	if d.err == nil {
		d.err = d.corrupt(msg)
	}
	d.body = nil
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports the sticky error, or an error if body bytes remain
// unconsumed (a sign the caller's decode walked out of step).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.body) != 0 {
		return d.corrupt(fmt.Sprintf("%d trailing bytes after body", len(d.body)))
	}
	return nil
}

// Checker proves a wire file canonical, the encoding of the value it
// decodes to, without encoding that value again. The caller decodes the
// file, then makes on a Checker the field calls that would encode the
// decoded value: each call compares its field with the file's body where
// the encoding puts it, and Finish compares the header and string table
// the calls imply with the file's. So a varint with a redundant byte, a
// bool byte above 1, an unreferenced, repeated or out-of-order table
// string, an extra or misplaced section, and any field out of step all
// fail the check.
type Checker struct {
	kind    string
	version uint64
	data    []byte
	body    []byte // the body not yet compared
	bodyLen int
	idx     map[string]uint64
	tab     []string
	ok      bool
}

// NewChecker starts checking data as a canonical wire file of the given
// kind and version. A file not laid out as an Encoder lays one out — the
// header, the string table, the body and nothing else — fails at once.
func NewChecker(data []byte, kind string, version uint64) *Checker {
	c := &Checker{kind: kind, version: version, data: data, idx: make(map[string]uint64)}
	if _, body, err := frame(data, kind, version); err == nil {
		c.body, c.bodyLen, c.ok = body, len(body), true
	}
	return c
}

// expect compares b with the next body bytes.
func (c *Checker) expect(b []byte) {
	if !bytes.HasPrefix(c.body, b) {
		c.ok, c.body = false, nil
		return
	}
	c.body = c.body[len(b):]
}

// U checks an unsigned varint.
func (c *Checker) U(v uint64) {
	var b [binary.MaxVarintLen64]byte
	c.expect(binary.AppendUvarint(b[:0], v))
}

// I checks a signed (zigzag) varint.
func (c *Checker) I(v int64) {
	var b [binary.MaxVarintLen64]byte
	c.expect(binary.AppendVarint(b[:0], v))
}

// Bool checks a 0/1 byte.
func (c *Checker) Bool(v bool) {
	b := [1]byte{0}
	if v {
		b[0] = 1
	}
	c.expect(b[:])
}

// F64 checks a float64's little-endian IEEE-754 bits.
func (c *Checker) F64(v float64) {
	var b [8]byte
	c.expect(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
}

// Str checks a string-table reference, numbering strings in first-use
// order as the Encoder does.
func (c *Checker) Str(s string) {
	i, ok := c.idx[s]
	if !ok {
		i = uint64(len(c.tab))
		c.idx[s] = i
		c.tab = append(c.tab, s)
	}
	c.U(i)
}

// Bytes checks a length-prefixed byte slice.
func (c *Checker) Bytes(b []byte) {
	c.U(uint64(len(b)))
	c.expect(b)
}

// Text checks a length-prefixed inline string.
func (c *Checker) Text(s string) {
	c.U(uint64(len(s)))
	if len(c.body) < len(s) || string(c.body[:len(s)]) != s {
		c.ok, c.body = false, nil
		return
	}
	c.body = c.body[len(s):]
}

// Finish reports whether the file is exactly the encoding of the fields
// checked: every body byte compared, and the header and string table
// equal to what an Encoder given those fields writes.
func (c *Checker) Finish() bool {
	if !c.ok || len(c.body) != 0 {
		return false
	}
	t := tableLen(c.tab)
	n := headLen(c.kind, c.version, t, c.bodyLen)
	return n == len(c.data)-c.bodyLen &&
		bytes.Equal(appendHead(make([]byte, 0, n), c.kind, c.version, c.tab, t, c.bodyLen), c.data[:n])
}
