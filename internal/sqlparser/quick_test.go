package sqlparser

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fedwf/internal/types"
)

// Generative round-trip property: for randomly generated statement ASTs,
// rendering to SQL and reparsing yields an identical AST. This exercises
// every printer and every parser production against each other.

type astGen struct{ r *rand.Rand }

func (g *astGen) ident() string {
	names := []string{"a", "b", "supplier_no", "CompName", "x1", "Qual", "T2"}
	return names[g.r.Intn(len(names))]
}

func (g *astGen) typ() types.Type {
	all := []types.Type{
		types.Boolean, types.SmallInt, types.Integer, types.BigInt,
		types.Double, types.VarChar, types.VarCharN(1 + g.r.Intn(40)),
	}
	return all[g.r.Intn(len(all))]
}

func (g *astGen) literal() Expr {
	switch g.r.Intn(5) {
	case 0:
		return &Literal{Val: types.NewInt(int64(g.r.Intn(1000)))}
	case 1:
		// Positive floats only: a leading minus would parse as unary minus.
		return &Literal{Val: types.NewFloat(float64(g.r.Intn(100)) + 0.5)}
	case 2:
		s := []string{"", "x", "it's", "two words", "%_"}[g.r.Intn(5)]
		return &Literal{Val: types.NewString(s)}
	case 3:
		return &Literal{Val: types.NewBool(g.r.Intn(2) == 0)}
	default:
		return &Literal{Val: types.Null}
	}
}

// expr generates a random expression tree of bounded depth.
func (g *astGen) expr(depth int) Expr {
	if depth <= 0 {
		if g.r.Intn(2) == 0 {
			return g.literal()
		}
		ref := &ColumnRef{Name: g.ident()}
		if g.r.Intn(3) == 0 {
			ref.Qualifier = g.ident()
		}
		return ref
	}
	switch g.r.Intn(10) {
	case 0:
		ops := []string{"+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
		return &BinaryExpr{Op: ops[g.r.Intn(len(ops))], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 1:
		op := []string{"NOT", "-"}[g.r.Intn(2)]
		return &UnaryExpr{Op: op, X: g.expr(depth - 1)}
	case 2:
		return &IsNull{X: g.expr(depth - 1), Not: g.r.Intn(2) == 0}
	case 3:
		return &Between{X: g.expr(depth - 1), Lo: g.expr(depth - 1), Hi: g.expr(depth - 1), Not: g.r.Intn(2) == 0}
	case 4:
		n := 1 + g.r.Intn(3)
		list := make([]Expr, n)
		for i := range list {
			list[i] = g.expr(depth - 1)
		}
		return &InList{X: g.expr(depth - 1), List: list, Not: g.r.Intn(2) == 0}
	case 5:
		return &Like{X: g.expr(depth - 1), Pattern: g.expr(depth - 1), Not: g.r.Intn(2) == 0}
	case 6:
		c := &CaseExpr{}
		for i := 0; i <= g.r.Intn(2); i++ {
			c.Whens = append(c.Whens, WhenClause{Cond: g.expr(depth - 1), Result: g.expr(depth - 1)})
		}
		if g.r.Intn(2) == 0 {
			c.Else = g.expr(depth - 1)
		}
		return c
	case 7:
		return &CastExpr{X: g.expr(depth - 1), Type: g.typ()}
	case 8:
		fns := []string{"UPPER", "COALESCE", "MOD", "SUM", "COUNT"}
		call := &FuncCall{Name: fns[g.r.Intn(len(fns))]}
		for i := 0; i <= g.r.Intn(2); i++ {
			call.Args = append(call.Args, g.expr(depth-1))
		}
		if len(call.Args) == 0 {
			call.Args = []Expr{g.literal()}
		}
		return call
	default:
		return g.expr(0)
	}
}

func (g *astGen) fromItem(depth int) FromItem {
	switch g.r.Intn(4) {
	case 0:
		ref := &TableRef{Name: g.ident()}
		if g.r.Intn(2) == 0 {
			ref.Alias = "c" + fmt.Sprint(g.r.Intn(10))
		}
		return ref
	case 1:
		fn := &TableFuncRef{Name: "Fn" + fmt.Sprint(g.r.Intn(5)), Alias: "f" + fmt.Sprint(g.r.Intn(10))}
		for i := 0; i < g.r.Intn(3); i++ {
			fn.Args = append(fn.Args, g.expr(1))
		}
		return fn
	case 2:
		if depth <= 0 {
			return &TableRef{Name: g.ident()}
		}
		return &SubqueryRef{Query: g.selectStmt(depth - 1), Alias: "d" + fmt.Sprint(g.r.Intn(10))}
	default:
		if depth <= 0 {
			return &TableRef{Name: g.ident()}
		}
		jt := []JoinType{InnerJoin, LeftJoin, CrossJoin}[g.r.Intn(3)]
		j := &JoinRef{Type: jt, Left: g.fromItem(0), Right: g.fromItem(0)}
		if jt != CrossJoin {
			j.On = g.expr(1)
		}
		return j
	}
}

func (g *astGen) selectStmt(depth int) *Select {
	sel := &Select{Limit: -1, Distinct: g.r.Intn(4) == 0}
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		switch g.r.Intn(5) {
		case 0:
			sel.Items = append(sel.Items, SelectItem{Star: true})
		case 1:
			sel.Items = append(sel.Items, SelectItem{Star: true, Qualifier: g.ident()})
		default:
			item := SelectItem{Expr: g.expr(2)}
			if g.r.Intn(2) == 0 {
				item.Alias = "al" + fmt.Sprint(g.r.Intn(10))
			}
			sel.Items = append(sel.Items, item)
		}
	}
	for i := 0; i < g.r.Intn(3); i++ {
		sel.From = append(sel.From, g.fromItem(depth))
	}
	if len(sel.From) > 0 && g.r.Intn(2) == 0 {
		sel.Where = g.expr(2)
	}
	if g.r.Intn(4) == 0 {
		sel.GroupBy = append(sel.GroupBy, g.expr(1))
		if g.r.Intn(2) == 0 {
			sel.Having = g.expr(1)
		}
	}
	for i := 0; i < g.r.Intn(3); i++ {
		sel.OrderBy = append(sel.OrderBy, OrderItem{Expr: g.expr(1), Desc: g.r.Intn(2) == 0})
	}
	if g.r.Intn(3) == 0 {
		sel.Limit = int64(g.r.Intn(100))
		if g.r.Intn(2) == 0 {
			sel.Offset = int64(1 + g.r.Intn(50))
		}
	}
	if depth > 0 && g.r.Intn(4) == 0 {
		for i := 0; i <= g.r.Intn(2); i++ {
			branch := g.selectStmt(0)
			branch.Unions = nil
			branch.OrderBy = nil
			branch.Limit = -1
			branch.Offset = 0
			sel.Unions = append(sel.Unions, UnionBranch{All: g.r.Intn(2) == 0, Query: branch})
		}
	}
	return sel
}

func (g *astGen) statement() Statement {
	switch g.r.Intn(8) {
	case 0:
		n := 1 + g.r.Intn(4)
		ct := &CreateTable{Name: g.ident()}
		for i := 0; i < n; i++ {
			ct.Columns = append(ct.Columns, ColumnDef{
				Name: fmt.Sprintf("c%d", i), Type: g.typ(), PrimaryKey: i == 0 && g.r.Intn(3) == 0,
			})
		}
		return ct
	case 1:
		ins := &Insert{Table: g.ident()}
		if g.r.Intn(2) == 0 {
			ins.Columns = []string{"c0", "c1"}
		}
		if g.r.Intn(3) == 0 {
			ins.Query = g.selectStmt(1)
			return ins
		}
		for i := 0; i <= g.r.Intn(2); i++ {
			ins.Rows = append(ins.Rows, []Expr{g.literal(), g.literal()})
		}
		return ins
	case 2:
		up := &Update{Table: g.ident()}
		up.Assignments = append(up.Assignments, Assignment{Column: "c0", Expr: g.expr(1)})
		if g.r.Intn(2) == 0 {
			up.Where = g.expr(1)
		}
		return up
	case 3:
		d := &Delete{Table: g.ident()}
		if g.r.Intn(2) == 0 {
			d.Where = g.expr(1)
		}
		return d
	case 4:
		cf := &CreateFunction{
			Name:     "F" + fmt.Sprint(g.r.Intn(10)),
			Returns:  types.Schema{{Name: "r0", Type: g.typ()}},
			Language: "SQL",
			Body:     g.selectStmt(1),
		}
		for i := 0; i < g.r.Intn(3); i++ {
			cf.Params = append(cf.Params, ParamDef{Name: fmt.Sprintf("p%d", i), Type: g.typ()})
		}
		if g.r.Intn(3) == 0 {
			cf.Language = "EXTERNAL"
			cf.Body = nil
			cf.ExternalName = "pkg.impl'with'quotes"
		}
		return cf
	case 5:
		switch g.r.Intn(3) {
		case 0:
			return &CreateWrapper{Name: g.ident(), Options: g.options()}
		case 1:
			return &CreateServer{Name: g.ident(), Wrapper: g.ident(), Options: g.options()}
		default:
			return &CreateNickname{Name: g.ident(), Server: g.ident(), Remote: g.ident()}
		}
	case 6:
		return &Explain{Stmt: g.selectStmt(1)}
	default:
		return g.selectStmt(2)
	}
}

func (g *astGen) options() map[string]string {
	if g.r.Intn(2) == 0 {
		return nil
	}
	out := map[string]string{}
	for i := 0; i <= g.r.Intn(2); i++ {
		out[fmt.Sprintf("opt%d", i)] = []string{"v", "it's", "two words"}[g.r.Intn(3)]
	}
	return out
}

func TestGenerativeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := &astGen{r: rand.New(rand.NewSource(seed))}
		stmt := g.statement()
		text := stmt.String()
		re, err := Parse(text)
		if err != nil {
			t.Logf("seed %d: %q failed to reparse: %v", seed, text, err)
			return false
		}
		if !reflect.DeepEqual(normalize(stmt), normalize(re)) {
			t.Logf("seed %d: round trip changed AST\n in: %s\nout: %s", seed, text, re.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// normalize canonicalises representation differences that the printer
// erases legitimately: nil vs empty option maps.
func normalize(s Statement) Statement {
	switch st := s.(type) {
	case *CreateWrapper:
		if len(st.Options) == 0 {
			return &CreateWrapper{Name: st.Name}
		}
	case *CreateServer:
		if len(st.Options) == 0 {
			return &CreateServer{Name: st.Name, Wrapper: st.Wrapper}
		}
	}
	return s
}

// mutationWords are the tokens mutate inserts or substitutes: keywords,
// operators and literals that open, close or break a production.
var mutationWords = []string{
	"SELECT", "FROM", "WHERE", "AS", "TABLE", "JOIN", "ON", "BY", "CASE",
	"END", "NOT", "IN", "AND", "NULL", "INT", "VARCHAR", "(", ")", ",", ".",
	";", "*", "=", "x", "1", "1.5", "'s'", "99999999999999999999",
}

// mutate applies one token edit to text, chosen by r: delete a token,
// insert one, truncate before one, swap one with the next, or replace one.
// A token's span runs to the start of the next, so its trailing space goes
// with it.
func mutate(r *rand.Rand, text string) string {
	toks, err := Lex(text)
	if err != nil || len(toks) < 2 {
		return text
	}
	// at[k] is the byte offset of token k; Lex counts columns in runes.
	at := make([]int, len(toks))
	line, col, k := 1, 1, 0
	for i, c := range text {
		for k < len(toks) && toks[k].Line == line && toks[k].Col == col {
			at[k], k = i, k+1
		}
		if c == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	for ; k < len(toks); k++ {
		at[k] = len(text)
	}
	i := r.Intn(len(toks) - 1)
	span := func(k int) string { return strings.TrimSpace(text[at[k]:at[k+1]]) + " " }
	word := mutationWords[r.Intn(len(mutationWords))] + " "
	switch r.Intn(5) {
	case 0:
		return text[:at[i]] + text[at[i+1]:]
	case 1:
		return text[:at[i]] + word + text[at[i]:]
	case 2:
		return text[:at[i]]
	case 3:
		if i+2 < len(toks) {
			return text[:at[i]] + span(i+1) + span(i) + text[at[i+2]:]
		}
		return text
	default:
		return text[:at[i]] + word + text[at[i+1]:]
	}
}

// outcome is what an entry point made of an input: its error text, or the
// rendering of each statement it returned.
func outcome(err error, stmts ...Statement) string {
	if err != nil {
		return err.Error()
	}
	parts := make([]string, len(stmts))
	for i, s := range stmts {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// outcomesSHA256 is the SHA-256 over the outcomes TestParseOutcomesDigest
// collects. It was taken from the parser before it kept its first error in
// one place, and re-taken when ParseSelect began to refuse a non-SELECT at
// its first token ("line 1 col 1: expected a SELECT statement, got DROP")
// instead of by Go type; only those 1 019 of the 10 400 outcomes changed.
const outcomesSHA256 = "e1753ec8c48e8e33d57c8d3cd22610946c296e5dca905de01e2c331bbe985e5d"

// TestParseOutcomesDigest pins what Parse, ParseScript and ParseSelect
// make of generated statements and of token-level mutations of them: each
// rendering and each error text with its line and column. A change to
// either moves the digest.
func TestParseOutcomesDigest(t *testing.T) {
	h := sha256.New()
	failed := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := (&astGen{r: r}).statement().String()
		for m := 0; m <= 25; m++ {
			in := text
			if m > 0 {
				in = mutate(r, text)
			}
			stmt, err := Parse(in)
			if err != nil {
				failed++
			}
			script, serr := ParseScript(in)
			sel, selErr := ParseSelect(in)
			fmt.Fprintf(h, "%s\n%s\n%s\n%s\n", in, outcome(err, stmt), outcome(serr, script...), outcome(selErr, sel))
		}
	}
	t.Logf("%d of %d inputs fail to parse", failed, 400*26)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != outcomesSHA256 {
		t.Errorf("parse outcomes hash to %s, want %s", got, outcomesSHA256)
	}
}
