// Package types defines the semantic types of MiniC.
//
// MiniC has 32-bit ints, 8-bit chars, pointers, fixed-length arrays,
// structs, and function types (reachable only through pointers, which is how
// indirect calls — a key concern of the paper's program analyzer — enter the
// language).
package types

import (
	"fmt"
	"strings"
)

// WordSize is the machine word size in bytes (PARV is a 32-bit architecture).
const WordSize = 4

// Type is the interface implemented by all MiniC types.
type Type interface {
	// Size returns the storage size in bytes (0 for void and functions).
	Size() int
	// String renders the type in C-like syntax.
	String() string
}

// Basic is a predeclared scalar type.
type Basic struct {
	name string
	size int
}

// The predeclared types. They are singletons: pointer equality works.
var (
	Int  = &Basic{name: "int", size: 4}
	Char = &Basic{name: "char", size: 1}
	Void = &Basic{name: "void", size: 0}
)

// Size implements Type.
func (b *Basic) Size() int { return b.size }

// String implements Type.
func (b *Basic) String() string { return b.name }

// Pointer is a pointer type.
type Pointer struct {
	Elem Type
}

// Size implements Type.
func (p *Pointer) Size() int { return WordSize }

// String implements Type.
func (p *Pointer) String() string { return p.Elem.String() + "*" }

// Array is a fixed-length array type.
type Array struct {
	Elem Type
	Len  int
}

// Size implements Type.
func (a *Array) Size() int { return a.Elem.Size() * a.Len }

// String implements Type.
func (a *Array) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }

// Field is a struct member.
type Field struct {
	Name   string
	Type   Type
	Offset int
}

// Struct is a struct type. Field offsets are assigned at construction with
// natural alignment (chars packed, everything else word-aligned).
type Struct struct {
	Name   string
	Fields []Field
	size   int
}

// NewStruct lays out the fields and returns the completed struct type.
func NewStruct(name string, fields []Field) *Struct {
	s := &Struct{Name: name}
	s.SetFields(fields)
	return s
}

// SetFields lays out fields into the struct. It exists separately from
// NewStruct so a struct shell can be registered before its fields are
// resolved, allowing self-referential structs through pointers.
func (s *Struct) SetFields(fields []Field) {
	s.Fields = nil
	off := 0
	for _, f := range fields {
		a := alignOf(f.Type)
		off = alignUp(off, a)
		f.Offset = off
		off += f.Type.Size()
		s.Fields = append(s.Fields, f)
	}
	s.size = alignUp(off, WordSize)
	if s.size == 0 {
		s.size = WordSize // empty structs still occupy storage
	}
}

// Size implements Type.
func (s *Struct) Size() int { return s.size }

// String implements Type.
func (s *Struct) String() string { return "struct " + s.Name }

// Field returns the named field, or nil.
func (s *Struct) Field(name string) *Field {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// Func is a function type. Variadic marks C89-style unchecked argument lists
// (used for implicitly declared functions).
type Func struct {
	Params   []Type
	Result   Type
	Variadic bool
}

// Size implements Type. Function types are not storable values.
func (f *Func) Size() int { return 0 }

// String implements Type.
func (f *Func) String() string {
	var b strings.Builder
	b.WriteString(f.Result.String())
	b.WriteString(" (")
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if f.Variadic {
		if len(f.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	return b.String()
}

func alignOf(t Type) int {
	switch t := t.(type) {
	case *Basic:
		if t == Char {
			return 1
		}
		return WordSize
	case *Array:
		return alignOf(t.Elem)
	default:
		return WordSize
	}
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// AlignOf exposes the alignment rule used for layout.
func AlignOf(t Type) int { return alignOf(t) }

// IsScalar reports whether t is a register-sized scalar (int, char, or a
// pointer) — exactly the values that fit in one PARV register and are thus
// candidates for register promotion (§4.1.2 of the paper).
func IsScalar(t Type) bool {
	switch t := t.(type) {
	case *Basic:
		return t == Int || t == Char
	case *Pointer:
		return true
	default:
		return false
	}
}

// IsInteger reports whether t is an integer type.
func IsInteger(t Type) bool {
	b, ok := t.(*Basic)
	return ok && (b == Int || b == Char)
}

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool {
	_, ok := t.(*Pointer)
	return ok
}

// IsFuncPointer reports whether t is a pointer to function.
func IsFuncPointer(t Type) bool {
	p, ok := t.(*Pointer)
	if !ok {
		return false
	}
	_, ok = p.Elem.(*Func)
	return ok
}

// Identical reports structural type identity. Struct types are compared by
// pointer (nominal typing), which matches C's tag semantics within a module.
func Identical(a, b Type) bool {
	if a == b {
		return true
	}
	switch a := a.(type) {
	case *Pointer:
		b, ok := b.(*Pointer)
		return ok && Identical(a.Elem, b.Elem)
	case *Array:
		b, ok := b.(*Array)
		return ok && a.Len == b.Len && Identical(a.Elem, b.Elem)
	case *Func:
		b, ok := b.(*Func)
		if !ok || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		if !Identical(a.Result, b.Result) {
			return false
		}
		for i := range a.Params {
			if !Identical(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// AssignableTo reports whether a value of type src may be assigned to a
// location of type dst under MiniC's (deliberately C-flavoured) rules:
// integers interconvert, pointers require identical element types, and any
// pointer accepts the integer constant 0 (checked by the caller).
func AssignableTo(src, dst Type) bool {
	if Identical(src, dst) {
		return true
	}
	if IsInteger(src) && IsInteger(dst) {
		return true
	}
	if IsPointer(src) && IsPointer(dst) {
		// void*-style laxity: allow assignment between pointer types whose
		// element is char (the language's byte-buffer idiom).
		sp := src.(*Pointer)
		dp := dst.(*Pointer)
		if sp.Elem == Char || dp.Elem == Char {
			return true
		}
		return Identical(sp.Elem, dp.Elem)
	}
	return false
}
