// Package sqlparser implements the SQL dialect of the integration server:
// the DB2-UDB-v7.1-flavoured subset used by the paper, including
// TABLE(fn(args)) AS corr FROM-clause items, CREATE FUNCTION ... RETURNS
// TABLE ... LANGUAGE SQL RETURN SELECT (SQL integration UDTFs), and the
// SQL/MED-style DDL (CREATE WRAPPER / SERVER / NICKNAME) that attaches
// foreign sources.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
)

// Token is one lexical token with its source position: 1-based line, and
// 1-based column counted in characters (runes), not bytes.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep their case
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "ALL": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "OFFSET": true, "AS": true, "TABLE": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "ON": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "IS": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "CREATE": true, "DROP": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true, "VIEW": true,
	"DELETE": true, "INDEX": true, "FUNCTION": true, "RETURNS": true,
	"RETURN": true, "LANGUAGE": true, "SQL": true, "EXTERNAL": true,
	"WRAPPER": true, "SERVER": true, "NICKNAME": true, "FOR": true,
	"OPTIONS": true, "EXPLAIN": true, "ANALYZE": true, "CALL": true, "UNION": true,
	"EXISTS": true, "PRIMARY": true, "KEY": true, "SHOW": true,
	"TABLES": true, "FUNCTIONS": true, "SERVERS": true, "VIEWS": true,
}

// Lex tokenises a SQL string. It returns a descriptive error with line and
// column for input that is not UTF-8, unterminated strings, malformed
// numbers, or stray characters.
func Lex(input string) ([]Token, error) {
	if !utf8.ValidString(input) {
		return nil, invalidUTF8(input)
	}
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(input)
	// advance moves i on by k bytes; col counts runes, so the continuation
	// bytes of a multi-byte character do not move it.
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if input[i+j] == '\n' {
				line++
				col = 1
			} else if utf8.RuneStart(input[i+j]) {
				col++
			}
		}
		i += k
	}
	for i < n {
		c := input[i]
		r, _ := utf8.DecodeRuneInString(input[i:])
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && input[i+1] == '*':
			startLine, startCol := line, col
			advance(2)
			closed := false
			for i+1 < n {
				if input[i] == '*' && input[i+1] == '/' {
					advance(2)
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated block comment at line %d col %d", startLine, startCol)
			}
		case c == '\'':
			startLine, startCol := line, col
			advance(1)
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						advance(2)
						continue
					}
					advance(1)
					closed = true
					break
				}
				sb.WriteByte(input[i])
				advance(1)
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at line %d col %d", startLine, startCol)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Line: startLine, Col: startCol})
		case c == '"':
			startLine, startCol := line, col
			advance(1)
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '"' {
					advance(1)
					closed = true
					break
				}
				sb.WriteByte(input[i])
				advance(1)
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at line %d col %d", startLine, startCol)
			}
			toks = append(toks, Token{Kind: TokIdent, Text: sb.String(), Line: startLine, Col: startCol})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			startLine, startCol := line, col
			j := i
			seenDot := false
			seenExp := false
			for j < n {
				d := input[j]
				if d >= '0' && d <= '9' {
					j++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					j++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && j > i {
					seenExp = true
					j++
					if j < n && (input[j] == '+' || input[j] == '-') {
						j++
					}
					continue
				}
				break
			}
			text := input[i:j]
			if strings.HasSuffix(text, "e") || strings.HasSuffix(text, "E") ||
				strings.HasSuffix(text, "+") || strings.HasSuffix(text, "-") {
				return nil, fmt.Errorf("sql: malformed number %q at line %d col %d", text, startLine, startCol)
			}
			advance(j - i)
			toks = append(toks, Token{Kind: TokNumber, Text: text, Line: startLine, Col: startCol})
		case isIdentStart(r):
			startLine, startCol := line, col
			j := i
			for j < n {
				r, size := utf8.DecodeRuneInString(input[j:])
				if !isIdentPart(r) {
					break
				}
				j += size
			}
			word := input[i:j]
			advance(j - i)
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Line: startLine, Col: startCol})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Line: startLine, Col: startCol})
			}
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				advance(2)
				toks = append(toks, Token{Kind: TokOp, Text: two, Line: startLine, Col: startCol})
				continue
			}
			switch c {
			case '(', ')', ',', '.', ';', '*', '+', '-', '/', '%', '=', '<', '>':
				advance(1)
				toks = append(toks, Token{Kind: TokOp, Text: string(c), Line: startLine, Col: startCol})
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at line %d col %d", r, startLine, startCol)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

// invalidUTF8 names the first byte of input that is not UTF-8, at the line
// and column Lex counts for it.
func invalidUTF8(input string) error {
	line, col := 1, 1
	for i := 0; i < len(input); {
		r, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			return fmt.Errorf("sql: invalid UTF-8 byte %#x at line %d col %d", input[i], line, col)
		case r == '\n':
			line, col = line+1, 1
		default:
			col++
		}
		i += size
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || r == '#' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
