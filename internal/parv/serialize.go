// Canonical on-disk formats for objects and executables, both in the
// shared wire format (internal/wire).
//
// The incremental build system's load-bearing invariant is a plain byte
// comparison — "an incremental rebuild produces a byte-identical
// executable to a clean build" — including across separate compiler
// processes. The wire format guarantees that by construction: no
// reflection, no process-global type registry, and no map iteration order
// reaches the bytes (Executable's name→index maps are flattened into
// name-sorted slices and rebuilt on read). The same value always encodes
// to the same bytes in any process.
package parv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"ipra/internal/wire"
)

// Wire format identities. Bump a version whenever that body layout
// changes shape or meaning.
const (
	objectWireKind    = "object"
	objectWireVersion = 1
	exeWireKind       = "exe"
	exeWireVersion    = 1
)

func appendInstr(e *wire.Encoder, in *Instr) {
	e.Byte(byte(in.Op))
	e.Byte(in.Rd)
	e.Byte(in.Ra)
	e.Byte(in.Rb)
	e.I(int64(in.Imm))
	e.Byte(byte(in.Cond))
	e.I(int64(in.Target))
	e.Byte(in.MemSize)
	e.Bool(in.Singleton)
	e.Str(in.Sym)
}

func readInstr(d *wire.Decoder, in *Instr) {
	in.Op = Op(d.Byte())
	in.Rd = d.Byte()
	in.Ra = d.Byte()
	in.Rb = d.Byte()
	in.Imm = int32(d.I())
	in.Cond = Cond(d.Byte())
	in.Target = int32(d.I())
	in.MemSize = d.Byte()
	in.Singleton = d.Bool()
	in.Sym = d.Str()
}

func appendCode(e *wire.Encoder, code []Instr) {
	e.U(uint64(len(code)))
	for i := range code {
		appendInstr(e, &code[i])
	}
}

func readCode(d *wire.Decoder) []Instr {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Instr, n)
	for i := range out {
		readInstr(d, &out[i])
	}
	return out
}

// EncodeObject serializes a compiled module in its canonical form.
func EncodeObject(o *Object) []byte {
	e := wire.NewEncoder(objectWireKind, objectWireVersion)
	e.Str(o.Module)
	e.U(uint64(len(o.Funcs)))
	for _, f := range o.Funcs {
		e.Str(f.Name)
		appendCode(e, f.Code)
		e.U(uint64(len(f.Relocs)))
		for _, r := range f.Relocs {
			e.U(uint64(r.Index))
			e.U(uint64(r.Kind))
			e.Str(r.Sym)
			e.I(int64(r.Addend))
		}
	}
	e.U(uint64(len(o.Globals)))
	for _, g := range o.Globals {
		e.Str(g.Name)
		e.I(int64(g.Size))
		e.Bool(g.Init != nil)
		if g.Init != nil {
			e.Bytes(g.Init)
		}
		e.Bool(g.Defined)
		e.U(uint64(len(g.DataRelocs)))
		for _, r := range g.DataRelocs {
			e.I(int64(r.Offset))
			e.Str(r.Target)
			e.I(int64(r.Addend))
		}
	}
	return e.Finish()
}

// DecodeObject is the inverse of EncodeObject.
func DecodeObject(data []byte) (*Object, error) {
	d, err := wire.NewDecoder(data, objectWireKind, objectWireVersion)
	if err != nil {
		return nil, err
	}
	o := &Object{Module: d.Str()}
	n := d.Count(1)
	for i := 0; i < n; i++ {
		f := &ObjFunc{Name: d.Str(), Code: readCode(d)}
		if m := d.Count(4); m > 0 {
			f.Relocs = make([]Reloc, m)
			for k := range f.Relocs {
				f.Relocs[k] = Reloc{
					Index:  int(d.U()),
					Kind:   RelocKind(d.U()),
					Sym:    d.Str(),
					Addend: int32(d.I()),
				}
			}
		}
		o.Funcs = append(o.Funcs, f)
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		g := &DataSym{Name: d.Str(), Size: int32(d.I())}
		if d.Bool() {
			g.Init = d.Bytes()
			if g.Init == nil {
				g.Init = []byte{}
			}
		}
		g.Defined = d.Bool()
		if m := d.Count(3); m > 0 {
			g.DataRelocs = make([]DataReloc, m)
			for k := range g.DataRelocs {
				g.DataRelocs[k] = DataReloc{
					Offset: int32(d.I()),
					Target: d.Str(),
					Addend: int32(d.I()),
				}
			}
		}
		o.Globals = append(o.Globals, g)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return o, nil
}

// EncodeExecutable writes the canonical serialization of exe: the same
// executable always encodes to the same bytes, so on-disk images can be
// compared with a plain byte diff. The encoder is sized from the code up
// front, so the file is built in one buffer and copied once, into buf.
func EncodeExecutable(buf *bytes.Buffer, exe *Executable) error {
	// GlobalAddr flattened in name order: map iteration must not reach the
	// bytes.
	names := make([]string, 0, len(exe.GlobalAddr))
	for name := range exe.GlobalAddr {
		names = append(names, name)
	}
	sort.Strings(names)
	e := wire.NewEncoder(exeWireKind, exeWireVersion)
	e.Grow(exeBodyBound(exe, names))
	appendCode(e, exe.Code)
	e.U(uint64(len(exe.Funcs)))
	for _, fi := range exe.Funcs {
		e.Str(fi.Name)
		e.U(uint64(fi.Start))
		e.U(uint64(fi.End))
	}
	e.Bytes(exe.Data)
	e.U(uint64(len(names)))
	for _, name := range names {
		e.Str(name)
		e.I(int64(exe.GlobalAddr[name]))
	}
	e.I(int64(exe.DataSize))
	e.I(int64(exe.Entry))
	buf.Write(e.Finish())
	return nil
}

// exeBodyBound bounds the body and string table of exe's encoding, for
// Encoder.Grow. Link names every instruction's symbol after a function or
// a global, so the table holds at most those names and "", and every
// reference takes at most the width of the table's largest index; the
// other fields are counted exactly.
func exeBodyBound(exe *Executable, globals []string) (body, strs int) {
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) int { return binary.PutUvarint(tmp[:], v) }
	sv := func(v int64) int { return binary.PutVarint(tmp[:], v) }
	strs = 1
	for _, fi := range exe.Funcs {
		strs += uv(uint64(len(fi.Name))) + len(fi.Name)
	}
	for _, name := range globals {
		strs += uv(uint64(len(name))) + len(name)
	}
	ref := uv(uint64(len(exe.Funcs) + len(globals)))
	strs += ref
	// Per instruction: seven one-byte fields, the immediate, the target
	// and the symbol reference.
	body = uv(uint64(len(exe.Code))) + len(exe.Code)*(7+ref)
	for i := range exe.Code {
		body += sv(int64(exe.Code[i].Imm)) + sv(int64(exe.Code[i].Target))
	}
	body += uv(uint64(len(exe.Funcs)))
	for _, fi := range exe.Funcs {
		body += ref + uv(uint64(fi.Start)) + uv(uint64(fi.End))
	}
	body += uv(uint64(len(exe.Data))) + len(exe.Data)
	body += uv(uint64(len(globals))) + len(globals)*(ref+binary.MaxVarintLen32)
	return body + 2*binary.MaxVarintLen64, strs
}

// DecodeExecutable reads a canonical executable image, rebuilding the
// derived name→index maps. It rejects an image whose functions do not
// partition its code, whose entry is not an instruction, or whose data
// segment cannot hold its data image, so that a decoded executable can be
// disassembled and run without a panic.
func DecodeExecutable(data []byte) (*Executable, error) {
	d, err := wire.NewDecoder(data, exeWireKind, exeWireVersion)
	if err != nil {
		return nil, fmt.Errorf("parv: decode executable: %w", err)
	}
	exe := &Executable{Code: readCode(d)}
	n := d.Count(3)
	if n > 0 {
		exe.Funcs = make([]FuncInfo, n)
		for i := range exe.Funcs {
			exe.Funcs[i] = FuncInfo{
				Name:  d.Str(),
				Start: int(d.U()),
				End:   int(d.U()),
			}
		}
	}
	exe.Data = d.Bytes()
	exe.GlobalAddr = make(map[string]int32)
	n = d.Count(2)
	for i := 0; i < n; i++ {
		name := d.Str()
		exe.GlobalAddr[name] = int32(d.I())
	}
	exe.DataSize = int32(d.I())
	exe.Entry = int(d.I())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("parv: decode executable: %w", err)
	}
	if err := exe.check(); err != nil {
		return nil, fmt.Errorf("parv: decode executable: %w", err)
	}
	exe.FuncIdx = make(map[string]int, len(exe.Funcs))
	for i, fi := range exe.Funcs {
		exe.FuncIdx[fi.Name] = i
	}
	return exe, nil
}

// WriteExecutableFile stores exe at path in canonical form.
func WriteExecutableFile(path string, exe *Executable) error {
	var buf bytes.Buffer
	if err := EncodeExecutable(&buf, exe); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadExecutableFile loads an executable written by WriteExecutableFile.
func ReadExecutableFile(path string) (*Executable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	exe, err := DecodeExecutable(data)
	if err != nil {
		return nil, fmt.Errorf("parv: %s: %w", path, err)
	}
	return exe, nil
}

// WriteObjectFile stores a compiled module at path.
func WriteObjectFile(path string, o *Object) error {
	return os.WriteFile(path, EncodeObject(o), 0o644)
}

// ReadObjectFile loads an object written by WriteObjectFile.
func ReadObjectFile(path string) (*Object, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	o, err := DecodeObject(data)
	if err != nil {
		return nil, fmt.Errorf("parv: %s: %w", path, err)
	}
	return o, nil
}
