// Package lexer implements the MiniC scanner.
//
// The scanner is a straightforward hand-written state machine over a byte
// slice. It supports decimal, hexadecimal and character literals, string
// literals with the common C escapes, and both comment styles.
package lexer

import (
	"fmt"

	"ipra/internal/minic/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text into tokens.
type Lexer struct {
	src  []byte
	file string
	off  int // byte offset of next unread byte
	line int
	col  int
	errs []*Error
	// names interns the text of identifiers and numbers: a module names
	// each of its symbols many times, and each spelling is stored once.
	names map[string]string
}

// New returns a lexer over src; file is used in positions and diagnostics.
func New(file string, src []byte) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1, names: make(map[string]string)}
}

// intern returns b as a string, one copy per distinct spelling.
func (l *Lexer) intern(b []byte) string {
	if s, ok := l.names[string(b)]; ok {
		return s
	}
	s := string(b)
	l.names[s] = s
	return s
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...interface{}) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func hexVal(c byte) int64 {
	switch {
	case isDigit(c):
		return int64(c - '0')
	case 'a' <= c && c <= 'f':
		return int64(c-'a') + 10
	default:
		return int64(c-'A') + 10
	}
}

// skipSpace consumes whitespace and comments.
func (l *Lexer) skipSpace() {
	for {
		switch c := l.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	pos := l.pos()
	c := l.peek()
	switch {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '\'':
		return l.scanChar(pos)
	case c == '"':
		return l.scanString(pos)
	default:
		return l.scanOperator(pos)
	}
}

// All scans the remaining input and returns every token including the
// trailing EOF. It is a convenience for tests; the parser pulls tokens
// with Next.
func (l *Lexer) All() []token.Token {
	// Every token but EOF takes at least one byte of source, and MiniC
	// averages three to five: half the remaining length holds the tokens
	// of all but the densest code, so the slice is allocated once.
	toks := make([]token.Token, 0, (len(l.src)-l.off)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for isLetter(l.peek()) || isDigit(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if kw, ok := token.Keywords[string(text)]; ok {
		// A keyword's spelling is its kind's name: no copy of the text.
		return token.Token{Kind: kw, Lit: kw.String(), Pos: pos}
	}
	return token.Token{Kind: token.Ident, Lit: l.intern(text), Pos: pos}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	var val int64
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		for isHexDigit(l.peek()) {
			val = val*16 + hexVal(l.peek())
			l.advance()
		}
	} else {
		for isDigit(l.peek()) {
			val = val*10 + int64(l.peek()-'0')
			l.advance()
		}
	}
	return token.Token{Kind: token.Int, Lit: l.intern(l.src[start:l.off]), Val: val, Pos: pos}
}

// scanEscape decodes one character after a backslash has been consumed.
func (l *Lexer) scanEscape(pos token.Pos) byte {
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'x':
		var v int64
		n := 0
		for isHexDigit(l.peek()) && n < 2 {
			v = v*16 + hexVal(l.peek())
			l.advance()
			n++
		}
		if n == 0 {
			l.errorf(pos, "malformed \\x escape")
		}
		return byte(v)
	default:
		l.errorf(pos, "unknown escape \\%c", c)
		return c
	}
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	l.advance() // opening quote
	var val int64
	switch c := l.peek(); c {
	case 0, '\n':
		l.errorf(pos, "unterminated character literal")
		return token.Token{Kind: token.Illegal, Pos: pos}
	case '\\':
		l.advance()
		val = int64(l.scanEscape(pos))
	default:
		val = int64(c)
		l.advance()
	}
	if l.peek() != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.advance()
	}
	return token.Token{Kind: token.Int, Lit: fmt.Sprintf("%d", val), Val: val, Pos: pos}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var buf []byte
	for {
		c := l.peek()
		switch c {
		case 0, '\n':
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.String, Lit: string(buf), Pos: pos}
		case '"':
			l.advance()
			return token.Token{Kind: token.String, Lit: string(buf), Pos: pos}
		case '\\':
			l.advance()
			buf = append(buf, l.scanEscape(pos))
		default:
			buf = append(buf, c)
			l.advance()
		}
	}
}

// twoCharOps maps a leading operator byte to its '='-suffixed compound kind.
var twoCharOps = map[byte]token.Kind{
	'+': token.PlusEq,
	'-': token.MinusEq,
	'*': token.StarEq,
	'/': token.SlashEq,
	'%': token.PercentEq,
	'&': token.AmpEq,
	'|': token.PipeEq,
	'^': token.CaretEq,
}

func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	c := l.advance()
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: pos} }
	switch c {
	case '(':
		return mk(token.LParen)
	case ')':
		return mk(token.RParen)
	case '{':
		return mk(token.LBrace)
	case '}':
		return mk(token.RBrace)
	case '[':
		return mk(token.LBracket)
	case ']':
		return mk(token.RBracket)
	case ',':
		return mk(token.Comma)
	case ';':
		return mk(token.Semi)
	case '.':
		return mk(token.Dot)
	case '?':
		return mk(token.Question)
	case ':':
		return mk(token.Colon)
	case '~':
		return mk(token.Tilde)
	case '=':
		if l.peek() == '=' {
			l.advance()
			return mk(token.Eq)
		}
		return mk(token.Assign)
	case '!':
		if l.peek() == '=' {
			l.advance()
			return mk(token.Ne)
		}
		return mk(token.Not)
	case '+':
		if l.peek() == '+' {
			l.advance()
			return mk(token.PlusPlus)
		}
		if l.peek() == '=' {
			l.advance()
			return mk(token.PlusEq)
		}
		return mk(token.Plus)
	case '-':
		switch l.peek() {
		case '-':
			l.advance()
			return mk(token.MinusMinus)
		case '=':
			l.advance()
			return mk(token.MinusEq)
		case '>':
			l.advance()
			return mk(token.Arrow)
		}
		return mk(token.Minus)
	case '*', '/', '%', '^':
		if l.peek() == '=' {
			l.advance()
			return mk(twoCharOps[c])
		}
		switch c {
		case '*':
			return mk(token.Star)
		case '/':
			return mk(token.Slash)
		case '%':
			return mk(token.Percent)
		default:
			return mk(token.Caret)
		}
	case '&':
		if l.peek() == '&' {
			l.advance()
			return mk(token.AndAnd)
		}
		if l.peek() == '=' {
			l.advance()
			return mk(token.AmpEq)
		}
		return mk(token.Amp)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return mk(token.OrOr)
		}
		if l.peek() == '=' {
			l.advance()
			return mk(token.PipeEq)
		}
		return mk(token.Pipe)
	case '<':
		switch l.peek() {
		case '<':
			l.advance()
			if l.peek() == '=' {
				l.advance()
				return mk(token.ShlEq)
			}
			return mk(token.Shl)
		case '=':
			l.advance()
			return mk(token.Le)
		}
		return mk(token.Lt)
	case '>':
		switch l.peek() {
		case '>':
			l.advance()
			if l.peek() == '=' {
				l.advance()
				return mk(token.ShrEq)
			}
			return mk(token.Shr)
		case '=':
			l.advance()
			return mk(token.Ge)
		}
		return mk(token.Gt)
	default:
		l.errorf(pos, "illegal character %q", c)
		return mk(token.Illegal)
	}
}
