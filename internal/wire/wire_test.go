package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder("test", 3)
	e.U(0)
	e.U(1 << 40)
	e.I(-12345)
	e.I(7)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xfe)
	e.F64(3.5)
	e.Str("hello")
	e.Str("world")
	e.Str("hello") // deduplicated
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.Text("hello") // inline, not a table reference
	e.Text("")
	e.Words([]uint64{0xdeadbeef, 0, ^uint64(0)})
	e.Strs([]string{"a", "hello", "a"})
	e.Ints([]int{9, 0, 1 << 20})
	data := e.Finish()

	d, err := NewDecoder(data, "test", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U(); v != 0 {
		t.Errorf("U() = %d, want 0", v)
	}
	if v := d.U(); v != 1<<40 {
		t.Errorf("U() = %d, want 1<<40", v)
	}
	if v := d.I(); v != -12345 {
		t.Errorf("I() = %d, want -12345", v)
	}
	if v := d.I(); v != 7 {
		t.Errorf("I() = %d, want 7", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool() order wrong")
	}
	if v := d.Byte(); v != 0xfe {
		t.Errorf("Byte() = %x, want fe", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Errorf("F64() = %v, want 3.5", v)
	}
	if a, b := d.Str(), d.Str(); a != "hello" || b != "world" {
		t.Errorf("Str() = %q, %q", a, b)
	}
	if v := d.Str(); v != "hello" {
		t.Errorf("Str() = %q, want hello", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes() = %v", v)
	}
	if v := d.Bytes(); v != nil {
		t.Errorf("Bytes() = %v, want nil", v)
	}
	if a, b := d.Text(), d.Text(); a != "hello" || b != "" {
		t.Errorf("Text() = %q, %q", a, b)
	}
	ws := d.Words()
	if len(ws) != 3 || ws[0] != 0xdeadbeef || ws[1] != 0 || ws[2] != ^uint64(0) {
		t.Errorf("Words() = %v", ws)
	}
	ss := d.Strs()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "hello" || ss[2] != "a" {
		t.Errorf("Strs() = %v", ss)
	}
	is := d.Ints()
	if len(is) != 3 || is[0] != 9 || is[1] != 0 || is[2] != 1<<20 {
		t.Errorf("Ints() = %v", is)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	build := func() []byte {
		e := NewEncoder("det", 1)
		for _, s := range []string{"x", "y", "x", "z"} {
			e.Str(s)
		}
		e.U(42)
		return e.Finish()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical values encoded to different bytes")
	}
}

func TestHeaderMismatch(t *testing.T) {
	data := NewEncoder("alpha", 2).Finish()
	if _, err := NewDecoder(data, "beta", 2); err == nil {
		t.Error("kind mismatch not detected")
	}
	if _, err := NewDecoder(data, "alpha", 3); !errors.Is(err, ErrOldVersion) {
		t.Errorf("older version: got %v, want an error wrapping ErrOldVersion", err)
	}
	if _, err := NewDecoder(data, "alpha", 1); err == nil || errors.Is(err, ErrOldVersion) {
		t.Errorf("newer version: got %v, want a mismatch that is not ErrOldVersion", err)
	}
	if _, err := NewDecoder([]byte("not a wire file at all"), "alpha", 2); err == nil {
		t.Error("bad magic not detected")
	}
	if _, err := NewDecoder(nil, "alpha", 2); err == nil {
		t.Error("empty input not detected")
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder("trunc", 1)
	e.Str("some string payload")
	e.Words([]uint64{1, 2, 3, 4})
	e.Ints([]int{5, 6, 7})
	data := e.Finish()

	for cut := 0; cut < len(data); cut++ {
		d, err := NewDecoder(data[:cut], "trunc", 1)
		if err != nil {
			continue // header-level rejection is fine
		}
		d.Str()
		d.Words()
		d.Ints()
		if d.Finish() == nil && cut < len(data) {
			t.Errorf("truncation at %d/%d not detected", cut, len(data))
		}
	}
}

func TestOversizedCountFails(t *testing.T) {
	// A body claiming 2^40 words must fail the bounds check, not allocate.
	e := NewEncoder("big", 1)
	e.U(1 << 40)
	data := e.Finish()
	d, err := NewDecoder(data, "big", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Count(8); n != 0 || d.Err() == nil {
		t.Errorf("Count accepted oversized length: n=%d err=%v", n, d.Err())
	}
}

// TestSectionsAreTableThenBody: a file is read only when its sections are
// the string table and then the body, as every encoder writes them; an
// extra, missing, repeated or out-of-order section is an error.
func TestSectionsAreTableThenBody(t *testing.T) {
	e := NewEncoder("frame", 1)
	e.Str("s")
	e.U(99)
	data := e.Finish()
	d, err := NewDecoder(data, "frame", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s, v := d.Str(), d.U(); s != "s" || v != 99 || d.Finish() != nil {
		t.Fatalf("decoded %q, %d, %v", s, v, d.Finish())
	}
	// The file's last two sections: the body, and the table before it.
	body := data[len(data)-1-uvarintLen(uint64(len(e.body)))-len(e.body):]
	n := tableLen(e.tab)
	table := data[len(data)-len(body)-1-uvarintLen(uint64(n))-n : len(data)-len(body)]
	head := data[:len(data)-len(body)-len(table)]
	if table[0] != secStrings || body[0] != secBody {
		t.Fatal("the sections are not where the encoder puts them")
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{head}, parts...), nil) }
	for name, bad := range map[string][]byte{
		"an unknown section after the body":  join(table, body, []byte{9, 3, 0xaa, 0xbb, 0xcc}),
		"an unknown section before the body": join(table, []byte{9, 0}, body),
		"a repeated body":                    join(table, body, body),
		"a repeated string table":            join(table, table, body),
		"no body":                            join(table),
		"no string table":                    join(body),
		"the body first":                     join(body, table),
		"a byte after the body":              join(table, body, []byte{0}),
	} {
		if _, err := NewDecoder(bad, "frame", 1); err == nil {
			t.Errorf("a file with %s decoded", name)
		}
	}
}

func TestTrailingBodyBytesDetected(t *testing.T) {
	e := NewEncoder("trail", 1)
	e.U(1)
	e.U(2)
	data := e.Finish()
	d, err := NewDecoder(data, "trail", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.U() // consume only one of two values
	if err := d.Finish(); err == nil {
		t.Error("unconsumed body bytes not detected")
	}
}

// fields writes one value of every kind a Checker checks, a string
// table entry of tableBytes bytes among them.
func fields(tableBytes int, w interface {
	U(uint64)
	I(int64)
	Bool(bool)
	F64(float64)
	Str(string)
	Text(string)
	Bytes([]byte)
}) {
	w.Str("first")
	w.U(300)
	w.I(-5)
	w.Bool(true)
	w.F64(2.5)
	w.Str(string(bytes.Repeat([]byte("s"), tableBytes)))
	w.Text("inline text")
	w.Bytes([]byte{7, 8, 9})
	w.Str("first")
	w.Bytes(nil)
}

// TestGrowFramesInPlace: an encoder that calls Grow writes the same bytes
// as one that does not, and when the body stays within what Grow reserved
// and the string table within what it was promised, the file is the
// buffer Grow allocated, the body never copied. A string table or a body
// larger than promised falls back to the copy.
func TestGrowFramesInPlace(t *testing.T) {
	for _, c := range []struct {
		name       string
		body, strs int
		table      int
		wantFramed bool
	}{
		{"fits", 64, 64, 20, true},
		{"string table too large", 64, 8, 200, false},
		{"body outgrew the frame", 4, 64, 20, false},
	} {
		plain := NewEncoder("grow", 1)
		fields(c.table, plain)
		want := plain.Finish()
		if len(want) != cap(want) {
			t.Errorf("%s: Finish without Grow returned %d bytes in a %d-byte buffer", c.name, len(want), cap(want))
		}

		e := NewEncoder("grow", 1)
		e.Grow(c.body, c.strs)
		frame := e.frame[:cap(e.frame)]
		fields(c.table, e)
		got := e.Finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Grow changed the encoding", c.name)
		}
		framed := &got[len(got)-len(e.body)] == &frame[len(e.frame)]
		if framed != c.wantFramed {
			t.Errorf("%s: framed in place %v, want %v", c.name, framed, c.wantFramed)
		}
	}
}

// TestBytesView: BytesView returns the bytes Bytes would copy, in place,
// with a capacity that ends with them, and nil for an empty slice.
func TestBytesView(t *testing.T) {
	e := NewEncoder("view", 1)
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.U(4)
	data := e.Finish()
	d, err := NewDecoder(data, "view", 1)
	if err != nil {
		t.Fatal(err)
	}
	v := d.BytesView()
	if !bytes.Equal(v, []byte{1, 2, 3}) || cap(v) != 3 {
		t.Fatalf("BytesView() = %v (cap %d), want [1 2 3] (cap 3)", v, cap(v))
	}
	if &v[0] != &data[len(data)-5] {
		t.Error("BytesView copied the bytes")
	}
	if v := d.BytesView(); v != nil {
		t.Errorf("BytesView() = %v, want nil", v)
	}
	if d.U() != 4 || d.Finish() != nil {
		t.Error("BytesView left the decoder out of step")
	}
}

// TestChecker: a Checker given the fields that encoded a file accepts it,
// and rejects it when one field differs, when a varint carries a
// redundant byte, when the string table differs from the one the fields
// imply, and when the sections are not exactly the table and the body.
func TestChecker(t *testing.T) {
	e := NewEncoder("check", 1)
	fields(3, e)
	data := e.Finish()
	check := func(data []byte, table int) bool {
		c := NewChecker(data, "check", 1)
		fields(table, c)
		return c.Finish()
	}
	if !check(data, 3) {
		t.Fatal("the checker rejected the encoder's own bytes")
	}
	if check(data, 4) {
		t.Error("the checker accepted a different string")
	}
	c := NewChecker(data, "check", 1)
	fields(3, c)
	c.U(0)
	if c.Finish() {
		t.Error("the checker accepted a field the file does not hold")
	}
	if check(data[:len(data)-1], 3) {
		t.Error("the checker accepted a truncated file")
	}

	// Files assembled around the encoder's body and string table.
	file := func(tab []string, body []byte) []byte {
		return append(appendHead(nil, "check", 1, tab, tableLen(tab), len(body)), body...)
	}
	if !bytes.Equal(file(e.tab, e.body), data) {
		t.Fatal("the assembled file differs from the encoder's")
	}
	// The body opens with the reference to "first", then U(300).
	long := file(e.tab, append([]byte{e.body[0], 0xac, 0x82, 0x00}, e.body[3:]...))
	for name, bad := range map[string][]byte{
		"a varint with a redundant byte": long,
		"an unreferenced string":         file(append(e.tab, "x"), e.body),
		"an unknown section":             append(bytes.Clone(data), 9, 0),
		"its string table only":          data[:len(data)-len(e.body)-1-uvarintLen(uint64(len(e.body)))],
	} {
		if check(bad, 3) {
			t.Errorf("the checker accepted a file with %s", name)
		}
	}
}

// FuzzWireDecode drives the framing layer with arbitrary bytes: every
// outcome must be a clean error or a clean decode, never a panic.
func FuzzWireDecode(f *testing.F) {
	e := NewEncoder("fuzz", 1)
	e.Str("seed")
	e.Words([]uint64{1, 2, 3})
	e.Ints([]int{4, 5})
	e.Bytes([]byte("payload"))
	e.Text("text")
	e.F64(1.25)
	f.Add(e.Finish())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data, "fuzz", 1)
		if err != nil {
			return
		}
		d.Str()
		d.Words()
		d.Ints()
		d.Bytes()
		d.Text()
		d.F64()
		d.U()
		d.I()
		d.Bool()
		d.Strs()
		_ = d.Finish()
	})
}
