package sqlparser

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"fedwf/internal/types"
)

// Statement is any parsed SQL statement. String renders canonical SQL that
// reparses to an equal AST (used by the round-trip property tests and by
// the federated pushdown, which ships statement text to remote servers).
type Statement interface {
	stmt()
	String() string
}

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// ---------------------------------------------------------------- SELECT

// Select is a query expression. When Unions is non-empty, the statement
// is a UNION chain: this select is the first member, OrderBy/Limit/Offset
// apply to the combined result, and the union members themselves carry no
// ORDER BY or LIMIT (standard SQL forbids them there).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	Unions   []UnionBranch
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64 // 0 when absent
}

func (*Select) stmt() {}

// UnionBranch is one further member of a UNION chain.
type UnionBranch struct {
	All   bool // UNION ALL keeps duplicates
	Query *Select
}

// SelectItem is one entry of the projection list.
type SelectItem struct {
	Star      bool   // SELECT * or corr.*
	Qualifier string // correlation for corr.*
	Expr      Expr   // nil when Star
	Alias     string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// FromItem is one entry of the FROM clause.
type FromItem interface {
	fromItem()
	String() string
	// Corr returns the correlation name exposed by this item ("" for joins).
	Corr() string
}

// TableRef references a base table or nickname.
type TableRef struct {
	Name  string
	Alias string
}

func (*TableRef) fromItem() {}

// Corr returns the exposed correlation name.
func (t *TableRef) Corr() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t *TableRef) String() string {
	if t.Alias != "" {
		return ident(t.Name) + " AS " + ident(t.Alias)
	}
	return ident(t.Name)
}

// TableFuncRef references a table function: TABLE (Fn(args)) AS corr.
// The paper's UDTF mechanism; the correlation name is mandatory, matching
// DB2 UDB v7.1.
type TableFuncRef struct {
	Name  string
	Args  []Expr
	Alias string
}

func (*TableFuncRef) fromItem() {}

// Corr returns the mandatory correlation name.
func (t *TableFuncRef) Corr() string { return t.Alias }

func (t *TableFuncRef) String() string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("TABLE (%s(%s)) AS %s", ident(t.Name), strings.Join(args, ", "), ident(t.Alias))
}

// SubqueryRef is a derived table: (SELECT ...) AS corr.
type SubqueryRef struct {
	Query *Select
	Alias string
}

func (*SubqueryRef) fromItem() {}

// Corr returns the derived table's correlation name.
func (s *SubqueryRef) Corr() string { return s.Alias }

func (s *SubqueryRef) String() string {
	return "(" + s.Query.String() + ") AS " + ident(s.Alias)
}

// JoinType enumerates supported join operators.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

func (j JoinType) String() string {
	switch j {
	case LeftJoin:
		return "LEFT JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinRef is an explicit join of two FROM items.
type JoinRef struct {
	Type  JoinType
	Left  FromItem
	Right FromItem
	On    Expr // nil for CROSS JOIN
}

func (*JoinRef) fromItem() {}

// Corr returns "" — joins expose their operands' correlations.
func (j *JoinRef) Corr() string { return "" }

func (j *JoinRef) String() string {
	s := j.Left.String() + " " + j.Type.String() + " " + j.Right.String()
	if j.On != nil {
		s += " ON " + j.On.String()
	}
	return s
}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Qualifier != "":
			b.WriteString(ident(it.Qualifier) + ".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + ident(it.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	for _, u := range s.Unions {
		if u.All {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		b.WriteString(u.Query.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", s.Offset)
	}
	return b.String()
}

// ------------------------------------------------------------------ DDL

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Type
	PrimaryKey bool
}

// CreateTable creates a base table.
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

func (c *CreateTable) String() string {
	cols := make([]string, len(c.Columns))
	for i, col := range c.Columns {
		cols[i] = ident(col.Name) + " " + col.Type.String()
		if col.PrimaryKey {
			cols[i] += " PRIMARY KEY"
		}
	}
	return "CREATE TABLE " + ident(c.Name) + " (" + strings.Join(cols, ", ") + ")"
}

// CreateView defines a named query: the paper's "homogenized view"
// applications refer to in the upper tier of the integration
// architecture. Views expand like derived tables during planning, so they
// may reference base tables, nicknames, federated functions, and other
// views.
type CreateView struct {
	Name  string
	Query *Select
}

func (*CreateView) stmt() {}

func (v *CreateView) String() string {
	return "CREATE VIEW " + ident(v.Name) + " AS " + v.Query.String()
}

// DropView removes a view.
type DropView struct{ Name string }

func (*DropView) stmt() {}

func (d *DropView) String() string { return "DROP VIEW " + ident(d.Name) }

// DropTable drops a base table.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

func (d *DropTable) String() string { return "DROP TABLE " + ident(d.Name) }

// CreateIndex creates a hash index.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndex) stmt() {}

func (c *CreateIndex) String() string {
	return fmt.Sprintf("CREATE INDEX %s ON %s (%s)", ident(c.Name), ident(c.Table), ident(c.Column))
}

// ParamDef is one parameter of a CREATE FUNCTION.
type ParamDef struct {
	Name string
	Type types.Type
}

// CreateFunction registers a table function. LANGUAGE SQL functions carry
// a single RETURN SELECT body (the paper's SQL I-UDTF); LANGUAGE EXTERNAL
// functions name a host implementation registered with the engine (the
// paper's Java A-UDTFs and Java I-UDTFs, realised in Go here).
type CreateFunction struct {
	Name         string
	Params       []ParamDef
	Returns      types.Schema
	Language     string // "SQL" or "EXTERNAL"
	Body         *Select
	ExternalName string
}

func (*CreateFunction) stmt() {}

func (c *CreateFunction) String() string {
	params := make([]string, len(c.Params))
	for i, p := range c.Params {
		params[i] = ident(p.Name) + " " + p.Type.String()
	}
	rets := make([]string, len(c.Returns))
	for i, r := range c.Returns {
		rets[i] = ident(r.Name) + " " + r.Type.String()
	}
	s := fmt.Sprintf("CREATE FUNCTION %s (%s) RETURNS TABLE (%s)",
		ident(c.Name), strings.Join(params, ", "), strings.Join(rets, ", "))
	if strings.EqualFold(c.Language, "SQL") {
		s += " LANGUAGE SQL RETURN " + c.Body.String()
	} else {
		s += " LANGUAGE EXTERNAL NAME '" + strings.ReplaceAll(c.ExternalName, "'", "''") + "'"
	}
	return s
}

// DropFunction unregisters a table function.
type DropFunction struct{ Name string }

func (*DropFunction) stmt() {}

func (d *DropFunction) String() string { return "DROP FUNCTION " + ident(d.Name) }

// CreateWrapper registers a SQL/MED wrapper implementation by name.
type CreateWrapper struct {
	Name    string
	Options map[string]string
}

func (*CreateWrapper) stmt() {}

func (c *CreateWrapper) String() string {
	return "CREATE WRAPPER " + ident(c.Name) + optionsString(c.Options)
}

// CreateServer attaches a foreign server through a wrapper.
type CreateServer struct {
	Name    string
	Wrapper string
	Options map[string]string
}

func (*CreateServer) stmt() {}

func (c *CreateServer) String() string {
	return "CREATE SERVER " + ident(c.Name) + " WRAPPER " + ident(c.Wrapper) + optionsString(c.Options)
}

// CreateNickname exposes a remote table of a foreign server under a local
// name.
type CreateNickname struct {
	Name   string
	Server string
	Remote string
}

func (*CreateNickname) stmt() {}

func (c *CreateNickname) String() string {
	return fmt.Sprintf("CREATE NICKNAME %s FOR %s.%s", ident(c.Name), ident(c.Server), ident(c.Remote))
}

// ------------------------------------------------------------------ DML

// Insert adds rows, either literal VALUES or the result of a query.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *Select
}

func (*Insert) stmt() {}

func (ins *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + ident(ins.Table))
	if len(ins.Columns) > 0 {
		cols := make([]string, len(ins.Columns))
		for i, c := range ins.Columns {
			cols[i] = ident(c)
		}
		b.WriteString(" (" + strings.Join(cols, ", ") + ")")
	}
	if ins.Query != nil {
		b.WriteString(" " + ins.Query.String())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		vals := make([]string, len(row))
		for j, e := range row {
			vals[j] = e.String()
		}
		b.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
	return b.String()
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// Update rewrites rows in place.
type Update struct {
	Table       string
	Assignments []Assignment
	Where       Expr
}

func (*Update) stmt() {}

func (u *Update) String() string {
	sets := make([]string, len(u.Assignments))
	for i, a := range u.Assignments {
		sets[i] = ident(a.Column) + " = " + a.Expr.String()
	}
	s := "UPDATE " + ident(u.Table) + " SET " + strings.Join(sets, ", ")
	if u.Where != nil {
		s += " WHERE " + u.Where.String()
	}
	return s
}

// Delete removes rows.
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

func (d *Delete) String() string {
	s := "DELETE FROM " + ident(d.Table)
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// ---------------------------------------------------------------- other

// Explain wraps a statement for plan display; with Analyze set the plan
// is executed and annotated with actual row counts and times.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}

// Show lists catalog objects: SHOW TABLES | FUNCTIONS | SERVERS.
type Show struct{ What string }

func (*Show) stmt() {}

func (s *Show) String() string { return "SHOW " + s.What }

// Set assigns an integer engine option: SET <option> <n>
// (e.g. SET PARALLELISM 4).
type Set struct {
	Option string // upper-cased
	Value  int64
}

func (*Set) stmt() {}

func (s *Set) String() string { return fmt.Sprintf("SET %s %d", s.Option, s.Value) }

// ------------------------------------------------------------ expressions

// Literal is a constant value.
type Literal struct{ Val types.Value }

func (*Literal) expr() {}

func (l *Literal) String() string { return l.Val.String() }

// ColumnRef names a column, an input parameter of the enclosing SQL
// function (FnName.ParamName), or a correlation output (corr.Col); which
// one is decided during planning.
type ColumnRef struct {
	Qualifier string
	Name      string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return ident(c.Qualifier) + "." + ident(c.Name)
	}
	return ident(c.Name)
}

// FuncCall is a scalar or aggregate function call.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	if f.Star {
		return strings.ToUpper(f.Name) + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return strings.ToUpper(f.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op   string // +,-,*,/,%,||,=,<>,<,<=,>,>=,AND,OR
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// UnaryExpr applies a prefix operator: NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*UnaryExpr) expr() {}

func (u *UnaryExpr) String() string {
	if u.Op == "-" {
		return "(-" + u.X.String() + ")"
	}
	return "(" + u.Op + " " + u.X.String() + ")"
}

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

func (*IsNull) expr() {}

func (i *IsNull) String() string {
	if i.Not {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

// Between tests X [NOT] BETWEEN Lo AND Hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*Between) expr() {}

func (b *Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.X.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// InList tests X [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*InList) expr() {}

func (i *InList) String() string {
	items := make([]string, len(i.List))
	for j, e := range i.List {
		items[j] = e.String()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.X.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

// Like tests X [NOT] LIKE pattern, with SQL % and _ wildcards.
type Like struct {
	X, Pattern Expr
	Not        bool
}

func (*Like) expr() {}

func (l *Like) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return "(" + l.X.String() + " " + not + "LIKE " + l.Pattern.String() + ")"
}

// WhenClause is one WHEN cond THEN result arm of a CASE.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

func (*CaseExpr) expr() {}

func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type types.Type
}

func (*CastExpr) expr() {}

func (c *CastExpr) String() string {
	return "CAST(" + c.X.String() + " AS " + c.Type.String() + ")"
}

// ident renders an identifier, quoting it when it collides with a keyword
// or contains characters outside the plain identifier alphabet.
func ident(s string) string {
	if s == "" {
		return `""`
	}
	first, _ := utf8.DecodeRuneInString(s)
	plain := isIdentStart(first)
	if plain {
		for _, r := range s {
			if !isIdentPart(r) {
				plain = false
				break
			}
		}
	}
	if plain && !keywords[strings.ToUpper(s)] {
		return s
	}
	return `"` + s + `"`
}
