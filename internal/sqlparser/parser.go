package sqlparser

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"fedwf/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt := p.parseStatement()
	p.acceptOp(";")
	if p.peek().Kind != TokEOF {
		p.errf("unexpected %s after statement", p.peek())
	}
	if p.err != nil {
		return nil, p.err
	}
	return stmt, nil
}

// ParseSelect parses a query expression; the input must be a SELECT. Any
// other statement is refused at its first token, in the parser's format.
func ParseSelect(input string) (*Select, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		toks, _ := Lex(input) // Parse lexed it already
		p := &parser{toks: toks}
		p.errf("expected a SELECT statement, got %s", p.peek())
		return nil, p.err
	}
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of statements,
// ignoring empty statements.
func ParseScript(input string) ([]Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Kind == TokEOF {
			break
		}
		stmts = append(stmts, p.parseStatement())
		if p.peek().Kind != TokEOF && !p.peekOp(";") {
			p.errf("expected ';' between statements, got %s", p.peek())
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return stmts, nil
}

// parser keeps the first error it meets. errf records it and moves the
// cursor onto the final EOF token, so from then on nothing is consumed,
// every expect fails without recording anything and every loop ends. A
// parse function therefore returns only its node, and the entry points
// return err.
type parser struct {
	toks []Token
	pos  int
	err  error
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peek2() Token { // token after next, EOF-safe
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) {
	if p.err == nil {
		t := p.peek()
		p.err = fmt.Errorf("sql: line %d col %d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
	}
	p.pos = len(p.toks) - 1
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) {
	if !p.acceptKeyword(kw) {
		p.errf("expected %s, got %s", kw, p.peek())
	}
}

func (p *parser) peekOp(op string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == op
}

func (p *parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.pos++
		return true
	}
	return false
}

// acceptOps consumes the next token if it is one of ops and returns it, or
// returns "".
func (p *parser) acceptOps(ops ...string) string {
	for _, op := range ops {
		if p.acceptOp(op) {
			return op
		}
	}
	return ""
}

func (p *parser) expectOp(op string) {
	if !p.acceptOp(op) {
		p.errf("expected %q, got %s", op, p.peek())
	}
}

// expectIdent consumes an identifier. Non-reserved usage of keywords is
// not supported; quoted identifiers lex as TokIdent already.
func (p *parser) expectIdent(what string) string {
	t := p.peek()
	if t.Kind != TokIdent {
		p.errf("expected %s, got %s", what, t)
		return ""
	}
	p.pos++
	return t.Text
}

// alias parses "[AS] name". The name must follow AS, and must be there
// when required; otherwise a missing name is "".
func (p *parser) alias(what string, required bool) string {
	if p.acceptKeyword("AS") || required {
		return p.expectIdent(what)
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text
	}
	return ""
}

// exprList parses one or more comma-separated expressions.
func (p *parser) exprList() []Expr {
	var list []Expr
	for {
		list = append(list, p.parseExpr())
		if !p.acceptOp(",") {
			return list
		}
	}
}

// exprAfter parses the expression that follows keyword kw, or returns nil
// when kw is not next.
func (p *parser) exprAfter(kw string) Expr {
	if p.acceptKeyword(kw) {
		return p.parseExpr()
	}
	return nil
}

func (p *parser) parseStatement() Statement {
	t := p.peek()
	if t.Kind != TokKeyword {
		p.errf("expected a statement, got %s", t)
		return nil
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		p.next()
		analyze := p.acceptKeyword("ANALYZE")
		return &Explain{Stmt: p.parseStatement(), Analyze: analyze}
	case "SHOW":
		p.next()
		w := p.peek()
		if w.Kind != TokKeyword || (w.Text != "TABLES" && w.Text != "FUNCTIONS" && w.Text != "SERVERS" && w.Text != "VIEWS") {
			p.errf("expected TABLES, FUNCTIONS, SERVERS or VIEWS after SHOW, got %s", w)
			return nil
		}
		p.next()
		return &Show{What: w.Text}
	case "SET":
		p.next()
		o := p.peek()
		if o.Kind != TokIdent && o.Kind != TokKeyword {
			p.errf("expected an option name after SET, got %s", o)
			return nil
		}
		p.next()
		neg := p.acceptOp("-")
		n := p.parseIntLiteral("SET " + o.Text)
		if neg {
			n = -n
		}
		return &Set{Option: strings.ToUpper(o.Text), Value: n}
	default:
		p.errf("unsupported statement %s", t.Text)
		return nil
	}
}

// ---------------------------------------------------------------- SELECT

// parseSelect parses a full query expression: a select core, optional
// UNION [ALL] members (select cores, per standard SQL), and the chain's
// ORDER BY / LIMIT / OFFSET.
func (p *parser) parseSelect() *Select {
	sel := p.parseSelectCore()
	for p.acceptKeyword("UNION") {
		all := p.acceptKeyword("ALL")
		sel.Unions = append(sel.Unions, UnionBranch{All: all, Query: p.parseSelectCore()})
	}
	if p.acceptKeyword("ORDER") {
		p.expectKeyword("BY")
		for {
			item := OrderItem{Expr: p.parseExpr()}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		sel.Limit = p.parseIntLiteral("LIMIT")
	}
	if p.acceptKeyword("OFFSET") {
		sel.Offset = p.parseIntLiteral("OFFSET")
	}
	return sel
}

// parseSelectCore parses SELECT ... FROM ... WHERE ... GROUP BY ... HAVING
// without set operators or ordering.
func (p *parser) parseSelectCore() *Select {
	p.expectKeyword("SELECT")
	sel := &Select{Limit: -1, Distinct: p.acceptKeyword("DISTINCT")}
	if !sel.Distinct {
		p.acceptKeyword("ALL")
	}
	for {
		sel.Items = append(sel.Items, p.parseSelectItem())
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			sel.From = append(sel.From, p.parseFromItem())
			if !p.acceptOp(",") {
				break
			}
		}
	}
	sel.Where = p.exprAfter("WHERE")
	if p.acceptKeyword("GROUP") {
		p.expectKeyword("BY")
		sel.GroupBy = p.exprList()
	}
	sel.Having = p.exprAfter("HAVING")
	return sel
}

func (p *parser) parseIntLiteral(what string) int64 {
	t := p.peek()
	if t.Kind != TokNumber {
		p.errf("expected integer after %s, got %s", what, t)
		return 0
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		p.errf("%s wants an integer, got %s", what, t.Text)
		return 0
	}
	p.next()
	return n
}

func (p *parser) parseSelectItem() SelectItem {
	if p.acceptOp("*") {
		return SelectItem{Star: true}
	}
	// corr.* form: ident '.' '*'
	if p.peek().Kind == TokIdent && p.peek2().Kind == TokOp && p.peek2().Text == "." {
		if star := p.toks[p.pos+2]; star.Kind == TokOp && star.Text == "*" {
			q := p.next().Text
			p.pos += 2 // '.' '*'
			return SelectItem{Star: true, Qualifier: q}
		}
	}
	e := p.parseExpr()
	return SelectItem{Expr: e, Alias: p.alias("alias", false)}
}

func (p *parser) parseFromItem() FromItem {
	left := p.parseFromPrimary()
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("INNER"), p.peekKeyword("JOIN"):
			jt = InnerJoin
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			jt = LeftJoin
		case p.acceptKeyword("CROSS"):
			jt = CrossJoin
		default:
			return left
		}
		p.expectKeyword("JOIN")
		j := &JoinRef{Type: jt, Left: left, Right: p.parseFromPrimary()}
		if jt != CrossJoin {
			p.expectKeyword("ON")
			j.On = p.parseExpr()
		}
		left = j
	}
}

func (p *parser) parseFromPrimary() FromItem {
	switch {
	case p.acceptKeyword("TABLE"):
		// TABLE ( Fn(arg, ...) ) [AS] corr  — correlation name mandatory,
		// matching the DB2 UDB v7.1 syntax quoted in the paper.
		p.expectOp("(")
		fn := &TableFuncRef{Name: p.expectIdent("table function name")}
		p.expectOp("(")
		if !p.peekOp(")") {
			fn.Args = p.exprList()
		}
		p.expectOp(")")
		p.expectOp(")")
		fn.Alias = p.alias("correlation name (mandatory after TABLE(...))", true)
		return fn
	case p.acceptOp("("):
		if !p.peekKeyword("SELECT") {
			p.errf("expected SELECT in derived table, got %s", p.peek())
			return nil
		}
		q := p.parseSelect()
		p.expectOp(")")
		return &SubqueryRef{Query: q, Alias: p.alias("correlation name for derived table", true)}
	default:
		name := p.expectIdent("table name")
		return &TableRef{Name: name, Alias: p.alias("correlation name", false)}
	}
}

// ------------------------------------------------------------------ DDL

func (p *parser) parseCreate() Statement {
	p.expectKeyword("CREATE")
	switch {
	case p.acceptKeyword("TABLE"):
		ct := &CreateTable{Name: p.expectIdent("table name")}
		p.expectOp("(")
		for {
			col := ColumnDef{Name: p.expectIdent("column name")}
			col.Type = p.parseType()
			if p.acceptKeyword("PRIMARY") {
				p.expectKeyword("KEY")
				col.PrimaryKey = true
			}
			ct.Columns = append(ct.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(")")
		return ct
	case p.acceptKeyword("INDEX"):
		ci := &CreateIndex{Name: p.expectIdent("index name")}
		p.expectKeyword("ON")
		ci.Table = p.expectIdent("table name")
		p.expectOp("(")
		ci.Column = p.expectIdent("column name")
		p.expectOp(")")
		return ci
	case p.acceptKeyword("VIEW"):
		name := p.expectIdent("view name")
		p.expectKeyword("AS")
		return &CreateView{Name: name, Query: p.parseSelect()}
	case p.acceptKeyword("FUNCTION"):
		return p.parseCreateFunction()
	case p.acceptKeyword("WRAPPER"):
		name := p.expectIdent("wrapper name")
		return &CreateWrapper{Name: name, Options: p.parseOptions()}
	case p.acceptKeyword("SERVER"):
		cs := &CreateServer{Name: p.expectIdent("server name")}
		p.expectKeyword("WRAPPER")
		cs.Wrapper = p.expectIdent("wrapper name")
		cs.Options = p.parseOptions()
		return cs
	case p.acceptKeyword("NICKNAME"):
		cn := &CreateNickname{Name: p.expectIdent("nickname")}
		p.expectKeyword("FOR")
		cn.Server = p.expectIdent("server name")
		p.expectOp(".")
		cn.Remote = p.expectIdent("remote table name")
		return cn
	default:
		p.errf("unsupported CREATE %s", p.peek())
		return nil
	}
}

func (p *parser) parseCreateFunction() Statement {
	cf := &CreateFunction{Name: p.expectIdent("function name")}
	p.expectOp("(")
	if !p.peekOp(")") {
		for {
			pd := ParamDef{Name: p.expectIdent("parameter name")}
			pd.Type = p.parseType()
			cf.Params = append(cf.Params, pd)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	p.expectOp(")")
	p.expectKeyword("RETURNS")
	p.expectKeyword("TABLE")
	p.expectOp("(")
	for {
		rc := types.Column{Name: p.expectIdent("result column name")}
		rc.Type = p.parseType()
		cf.Returns = append(cf.Returns, rc)
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(")")
	p.expectKeyword("LANGUAGE")
	switch {
	case p.acceptKeyword("SQL"):
		p.expectKeyword("RETURN")
		cf.Language, cf.Body = "SQL", p.parseSelect()
	case p.acceptKeyword("EXTERNAL"):
		// LANGUAGE EXTERNAL NAME 'registered-host-implementation'
		if n := p.peek(); n.Kind != TokIdent || !strings.EqualFold(n.Text, "NAME") {
			p.errf("expected NAME after LANGUAGE EXTERNAL, got %s", n)
			return nil
		}
		p.next()
		s := p.peek()
		if s.Kind != TokString {
			p.errf("expected string literal after EXTERNAL NAME, got %s", s)
			return nil
		}
		p.next()
		cf.Language, cf.ExternalName = "EXTERNAL", s.Text
	default:
		p.errf("expected SQL or EXTERNAL after LANGUAGE, got %s", p.peek())
	}
	return cf
}

func (p *parser) parseOptions() map[string]string {
	if !p.acceptKeyword("OPTIONS") {
		return nil
	}
	p.expectOp("(")
	opts := make(map[string]string)
	for {
		k := p.expectIdent("option name")
		v := p.peek()
		if v.Kind != TokString {
			p.errf("expected string value for option %s, got %s", k, v)
			return nil
		}
		p.next()
		opts[strings.ToLower(k)] = v.Text
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(")")
	return opts
}

func (p *parser) parseDrop() Statement {
	p.expectKeyword("DROP")
	switch {
	case p.acceptKeyword("TABLE"):
		return &DropTable{Name: p.expectIdent("table name")}
	case p.acceptKeyword("FUNCTION"):
		return &DropFunction{Name: p.expectIdent("function name")}
	case p.acceptKeyword("VIEW"):
		return &DropView{Name: p.expectIdent("view name")}
	default:
		p.errf("unsupported DROP %s", p.peek())
		return nil
	}
}

// ------------------------------------------------------------------ DML

func (p *parser) parseInsert() Statement {
	p.expectKeyword("INSERT")
	p.expectKeyword("INTO")
	ins := &Insert{Table: p.expectIdent("table name")}
	if p.acceptOp("(") {
		for {
			ins.Columns = append(ins.Columns, p.expectIdent("column name"))
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(")")
	}
	if p.peekKeyword("SELECT") {
		ins.Query = p.parseSelect()
		return ins
	}
	p.expectKeyword("VALUES")
	for {
		p.expectOp("(")
		row := p.exprList()
		p.expectOp(")")
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			return ins
		}
	}
}

func (p *parser) parseUpdate() Statement {
	p.expectKeyword("UPDATE")
	u := &Update{Table: p.expectIdent("table name")}
	p.expectKeyword("SET")
	for {
		col := p.expectIdent("column name")
		p.expectOp("=")
		u.Assignments = append(u.Assignments, Assignment{Column: col, Expr: p.parseExpr()})
		if !p.acceptOp(",") {
			break
		}
	}
	u.Where = p.exprAfter("WHERE")
	return u
}

func (p *parser) parseDelete() Statement {
	p.expectKeyword("DELETE")
	p.expectKeyword("FROM")
	d := &Delete{Table: p.expectIdent("table name")}
	d.Where = p.exprAfter("WHERE")
	return d
}

// parseType parses a SQL type name: IDENT [(n)] with the special two-word
// form DOUBLE PRECISION.
func (p *parser) parseType() types.Type {
	t := p.peek()
	if t.Kind != TokIdent {
		p.errf("expected a type name, got %s", t)
		return types.Type{}
	}
	p.next()
	name := t.Text
	if strings.EqualFold(name, "DOUBLE") && p.peek().Kind == TokIdent &&
		strings.EqualFold(p.peek().Text, "PRECISION") {
		p.next()
	}
	if p.acceptOp("(") {
		n := p.peek()
		if n.Kind != TokNumber {
			p.errf("expected length in type %s, got %s", name, n)
			return types.Type{}
		}
		p.next()
		p.expectOp(")")
		name = fmt.Sprintf("%s(%s)", name, n.Text)
	}
	if p.err != nil {
		return types.Type{}
	}
	ty, err := types.ParseType(name)
	if err != nil {
		p.errf("%v", err)
	}
	return ty
}

// ------------------------------------------------------------ expressions

// parseExpr parses a full boolean expression (lowest precedence: OR).
func (p *parser) parseExpr() Expr {
	left := p.parseAnd()
	for p.acceptKeyword("OR") {
		left = &BinaryExpr{Op: "OR", L: left, R: p.parseAnd()}
	}
	return left
}

func (p *parser) parseAnd() Expr {
	left := p.parseNot()
	for p.acceptKeyword("AND") {
		left = &BinaryExpr{Op: "AND", L: left, R: p.parseNot()}
	}
	return left
}

func (p *parser) parseNot() Expr {
	if p.acceptKeyword("NOT") {
		return &UnaryExpr{Op: "NOT", X: p.parseNot()}
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() Expr {
	left := p.parseAdditive()
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		p.expectKeyword("NULL")
		return &IsNull{X: left, Not: not}
	}
	not := false
	if p.peekKeyword("NOT") {
		// Only consume NOT when followed by BETWEEN / IN / LIKE.
		nx := p.peek2()
		if nx.Kind == TokKeyword && (nx.Text == "BETWEEN" || nx.Text == "IN" || nx.Text == "LIKE") {
			p.next()
			not = true
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo := p.parseAdditive()
		p.expectKeyword("AND")
		return &Between{X: left, Lo: lo, Hi: p.parseAdditive(), Not: not}
	case p.acceptKeyword("IN"):
		p.expectOp("(")
		list := p.exprList()
		p.expectOp(")")
		return &InList{X: left, List: list, Not: not}
	case p.acceptKeyword("LIKE"):
		return &Like{X: left, Pattern: p.parseAdditive(), Not: not}
	}
	if op := p.acceptOps("<=", ">=", "<>", "!=", "=", "<", ">"); op != "" {
		if op == "!=" {
			op = "<>"
		}
		return &BinaryExpr{Op: op, L: left, R: p.parseAdditive()}
	}
	return left
}

func (p *parser) parseAdditive() Expr {
	left := p.parseMultiplicative()
	for {
		op := p.acceptOps("+", "-", "||")
		if op == "" {
			return left
		}
		left = &BinaryExpr{Op: op, L: left, R: p.parseMultiplicative()}
	}
}

func (p *parser) parseMultiplicative() Expr {
	left := p.parseUnary()
	for {
		op := p.acceptOps("*", "/", "%")
		if op == "" {
			return left
		}
		left = &BinaryExpr{Op: op, L: left, R: p.parseUnary()}
	}
}

func (p *parser) parseUnary() Expr {
	if p.acceptOp("-") {
		return &UnaryExpr{Op: "-", X: p.parseUnary()}
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errf("bad number %q", t.Text)
		}
		return &Literal{Val: types.NewInt(n)}
	case TokString:
		p.next()
		return &Literal{Val: types.NewString(t.Text)}
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Val: types.Null}
		case "TRUE", "FALSE":
			p.next()
			return &Literal{Val: types.NewBool(t.Text == "TRUE")}
		case "CAST":
			p.next()
			p.expectOp("(")
			c := &CastExpr{X: p.parseExpr()}
			p.expectKeyword("AS")
			c.Type = p.parseType()
			p.expectOp(")")
			return c
		case "CASE":
			return p.parseCase()
		}
		p.errf("unexpected keyword %s in expression", t.Text)
		return nil
	case TokIdent:
		p.next()
		if p.acceptOp("(") {
			call := &FuncCall{Name: t.Text}
			if p.acceptOp("*") {
				call.Star = true
			} else {
				call.Distinct = p.acceptKeyword("DISTINCT")
				if !p.peekOp(")") {
					call.Args = p.exprList()
				}
			}
			p.expectOp(")")
			return call
		}
		// Qualified column: ident '.' ident
		if p.acceptOp(".") {
			return &ColumnRef{Qualifier: t.Text, Name: p.expectIdent("column name")}
		}
		return &ColumnRef{Name: t.Text}
	case TokOp:
		if p.acceptOp("(") {
			e := p.parseExpr()
			p.expectOp(")")
			return e
		}
	}
	p.errf("unexpected %s in expression", t)
	return nil
}

func (p *parser) parseCase() Expr {
	p.expectKeyword("CASE")
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond := p.parseExpr()
		p.expectKeyword("THEN")
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Result: p.parseExpr()})
	}
	if len(c.Whens) == 0 {
		p.errf("CASE requires at least one WHEN arm")
	}
	c.Else = p.exprAfter("ELSE")
	p.expectKeyword("END")
	return c
}

func optionsString(opts map[string]string) string {
	if len(opts) == 0 {
		return ""
	}
	// Sorted keys give a deterministic rendering for round-trip equality.
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(opts)) {
		parts = append(parts, k+" '"+strings.ReplaceAll(opts[k], "'", "''")+"'")
	}
	return " OPTIONS (" + strings.Join(parts, ", ") + ")"
}
