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

// lex tokenises a query, failing on unterminated strings or stray
// runes.
func lex(input string) ([]token, error) {
	// A token with the space after it averages three and a half bytes of a
	// query; one packed tighter ("a.k=b.k") grows the slice once.
	toks := make([]token, 0, len(input)/3+1)
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
			if keywords[strings.ToUpper(word)] {
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
	return toks, nil
}
