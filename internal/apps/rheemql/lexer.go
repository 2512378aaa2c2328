// Package rheemql is RHEEM's declarative layer: a small SQL dialect
// compiled onto logical plans. The paper's application layer foresees
// exactly this ("an application developer could also expose a
// declarative language for users to define their tasks (e.g., queries).
// The application is then responsible for translating a declarative
// query into a logical plan", §3.2).
//
// Supported shape:
//
//	SELECT item [, item ...]
//	FROM table [alias] [JOIN table [alias] ON a.col = b.col]
//	[WHERE comparison [AND comparison ...]]
//	[GROUP BY col [, col ...]]
//	[ORDER BY col [ASC|DESC]]
//	[LIMIT n]
//
// where items are columns, * or aggregates (COUNT(*), COUNT(col),
// SUM/AVG/MIN/MAX(col)), optionally aliased with AS; comparisons use
// =, !=, <, <=, >, >= between columns and literals (numbers, 'strings',
// TRUE/FALSE) or between two columns.
package rheemql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokKeyword
)

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"JOIN": true, "ON": true, "AS": true, "ASC": true, "DESC": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"TRUE": true, "FALSE": true,
}

// token is one lexical unit; Text is uppercased for keywords.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// isKeyword reports whether word spells a keyword in any case, without
// the string strings.ToUpper would make for every identifier. A word
// with a non-ASCII byte takes ToUpper's path: it folds some letters to
// ASCII ones.
func isKeyword(word string) bool {
	var up [6]byte // SELECT and HAVING are the longest keywords
	if len(word) > len(up) {
		return false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 0x80 {
			return keywords[strings.ToUpper(word)]
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return keywords[string(up[:len(word)])]
}

// lex tokenises a query, failing on unterminated strings or stray
// runes.
func lex(input string) ([]token, error) {
	// Tokens collect on the stack and are copied out once, into a slice
	// of their exact length; only a query of more than 64 tokens spills
	// the buffer to the heap.
	var buf [64]token
	toks := buf[:0]
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if isKeyword(word) {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case unicode.IsDigit(c):
			start := i
			for i < len(input) && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < len(input) && input[i] != '\'' {
				i++
			}
			if i >= len(input) {
				return nil, fmt.Errorf("rheemql: unterminated string at %d", start)
			}
			toks = append(toks, token{tokString, input[start+1 : i], start})
			i++
		case strings.ContainsRune("<>!=", c):
			start := i
			i++
			if i < len(input) && input[i] == '=' {
				i++
			}
			op := input[start:i]
			if op == "!" {
				return nil, fmt.Errorf("rheemql: bad operator %q at %d", op, start)
			}
			toks = append(toks, token{tokSymbol, op, start})
		case strings.ContainsRune(",().*", c):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("rheemql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return append(make([]token, 0, len(toks)), toks...), nil
}
