// Package token defines the lexical tokens of the MiniC language and the
// source positions attached to them.
//
// MiniC is the C subset used as the compilation substrate for the
// interprocedural register allocation system: it has global and
// module-private (static) variables, functions, structs, arrays, pointers,
// and function pointers, which is exactly the surface needed to exercise
// webs, clusters, and the two-pass compilation process of the paper.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The token kinds. Order within the operator block matters only for
// readability; precedence lives in the parser.
const (
	Illegal Kind = iota
	EOF

	// Literals and identifiers.
	Ident  // main, count
	Int    // 123, 0x7f, 'a'
	String // "abc"

	// Keywords.
	KwInt
	KwChar
	KwVoid
	KwStruct
	KwStatic
	KwExtern
	KwIf
	KwElse
	KwWhile
	KwFor
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwSizeof

	// Punctuation.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Comma    // ,
	Semi     // ;
	Dot      // .
	Arrow    // ->

	// Operators.
	Assign     // =
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Percent    // %
	Amp        // &
	Pipe       // |
	Caret      // ^
	Tilde      // ~
	Not        // !
	Shl        // <<
	Shr        // >>
	Lt         // <
	Gt         // >
	Le         // <=
	Ge         // >=
	Eq         // ==
	Ne         // !=
	AndAnd     // &&
	OrOr       // ||
	PlusPlus   // ++
	MinusMinus // --
	PlusEq     // +=
	MinusEq    // -=
	StarEq     // *=
	SlashEq    // /=
	PercentEq  // %=
	AmpEq      // &=
	PipeEq     // |=
	CaretEq    // ^=
	ShlEq      // <<=
	ShrEq      // >>=
	Question   // ?
	Colon      // :
)

var kindNames = map[Kind]string{
	Illegal:    "ILLEGAL",
	EOF:        "EOF",
	Ident:      "identifier",
	Int:        "integer literal",
	String:     "string literal",
	KwInt:      "int",
	KwChar:     "char",
	KwVoid:     "void",
	KwStruct:   "struct",
	KwStatic:   "static",
	KwExtern:   "extern",
	KwIf:       "if",
	KwElse:     "else",
	KwWhile:    "while",
	KwFor:      "for",
	KwDo:       "do",
	KwReturn:   "return",
	KwBreak:    "break",
	KwContinue: "continue",
	KwSizeof:   "sizeof",
	LParen:     "(",
	RParen:     ")",
	LBrace:     "{",
	RBrace:     "}",
	LBracket:   "[",
	RBracket:   "]",
	Comma:      ",",
	Semi:       ";",
	Dot:        ".",
	Arrow:      "->",
	Assign:     "=",
	Plus:       "+",
	Minus:      "-",
	Star:       "*",
	Slash:      "/",
	Percent:    "%",
	Amp:        "&",
	Pipe:       "|",
	Caret:      "^",
	Tilde:      "~",
	Not:        "!",
	Shl:        "<<",
	Shr:        ">>",
	Lt:         "<",
	Gt:         ">",
	Le:         "<=",
	Ge:         ">=",
	Eq:         "==",
	Ne:         "!=",
	AndAnd:     "&&",
	OrOr:       "||",
	PlusPlus:   "++",
	MinusMinus: "--",
	PlusEq:     "+=",
	MinusEq:    "-=",
	StarEq:     "*=",
	SlashEq:    "/=",
	PercentEq:  "%=",
	AmpEq:      "&=",
	PipeEq:     "|=",
	CaretEq:    "^=",
	ShlEq:      "<<=",
	ShrEq:      ">>=",
	Question:   "?",
	Colon:      ":",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"int":      KwInt,
	"char":     KwChar,
	"void":     KwVoid,
	"struct":   KwStruct,
	"static":   KwStatic,
	"extern":   KwExtern,
	"if":       KwIf,
	"else":     KwElse,
	"while":    KwWhile,
	"for":      KwFor,
	"do":       KwDo,
	"return":   KwReturn,
	"break":    KwBreak,
	"continue": KwContinue,
	"sizeof":   KwSizeof,
}

// Pos is a source position: file, 1-based line, 1-based column.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position in the conventional file:line:col form.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Lit  string // literal text for Ident, Int, String
	Val  int64  // decoded value for Int
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Int:
		return t.Lit
	case String:
		return fmt.Sprintf("%q", t.Lit)
	default:
		return t.Kind.String()
	}
}
