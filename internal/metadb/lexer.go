package metadb

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written; strings unquoted
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of statement"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "IF": true, "EXISTS": true, "NOT": true, "NULL": true,
	"PRIMARY": true, "KEY": true, "AND": true, "OR": true, "ORDER": true,
	"BY": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true, "COUNT": true,
	"SUM": true, "GROUP": true, "JOIN": true, "ON": true, "INDEX": true,
	"EXPLAIN": true,
}

// lex tokenizes a SQL statement. It returns a descriptive error with
// byte position on malformed input.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("metadb: unterminated string literal at byte %d", start)
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9':
			start := i
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, token{kind: tokInt, text: src[start:i], pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(src[i])) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			switch c {
			case '(', ')', ',', '*', '+', '-', '=', '.', '?':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("metadb: unexpected character %q at byte %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
