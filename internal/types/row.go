package types

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// Column describes one column of a relation, UDTF result table, or
// workflow container.
type Column struct {
	Name string
	Type Type
}

// String renders the column as "name TYPE".
func (c Column) String() string { return c.Name + " " + c.Type.String() }

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// LookupFold reads m, whose keys are lower case, at the lower case of name
// without allocating: an ASCII name folds into a stack buffer, and a map
// index by string(buf) copies nothing. A name that is not ASCII, or is
// longer than the buffer, falls back to strings.ToLower.
func LookupFold[V any](m map[string]V, name string) (V, bool) {
	var buf [64]byte
	if len(name) > len(buf) {
		v, ok := m[strings.ToLower(name)]
		return v, ok
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			v, ok := m[strings.ToLower(name)]
			return v, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	v, ok := m[string(buf[:len(name)])]
	return v, ok
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as a parenthesised column list.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is one tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports value-wise equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the row as a bracketed value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Validate checks that the row conforms positionally to the schema.
func (r Row) Validate(s Schema) error {
	if len(r) != len(s) {
		return fmt.Errorf("types: row has %d values, schema has %d columns", len(r), len(s))
	}
	for i, v := range r {
		if !Conforms(v, s[i].Type) {
			return fmt.Errorf("types: value %s does not conform to column %s", v, s[i])
		}
	}
	return nil
}

// CoerceRow casts every value of r to the corresponding column type of s.
func CoerceRow(r Row, s Schema) (Row, error) {
	if len(r) != len(s) {
		return nil, fmt.Errorf("types: row has %d values, schema has %d columns", len(r), len(s))
	}
	out := make(Row, len(r))
	for i, v := range r {
		cv, err := Cast(v, s[i].Type)
		if err != nil {
			return nil, fmt.Errorf("types: column %s: %w", s[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// ConformRow casts r to s like CoerceRow, but returns r itself, not a
// copy, when no cast changes a value; only a row some cast changes is
// copied.
func ConformRow(r Row, s Schema) (Row, error) {
	if len(r) != len(s) {
		return nil, fmt.Errorf("types: row has %d values, schema has %d columns", len(r), len(s))
	}
	r, at, err := ConformArgs(r, s)
	if err != nil {
		return nil, fmt.Errorf("types: column %s: %w", s[at].Name, err)
	}
	return r, nil
}

// ConformArgs casts each argument to the type of its parameter the way
// ConformRow casts a row: args itself comes back when no cast changes a
// value, else a copy. A failed cast also returns its argument's position;
// the caller checks the arity.
func ConformArgs(args []Value, params []Column) ([]Value, int, error) {
	copied := false
	for i, v := range args {
		cv, err := Cast(v, params[i].Type)
		if err != nil {
			return nil, i, err
		}
		if cv == v {
			continue
		}
		if !copied {
			args, copied = slices.Clone(args), true
		}
		args[i] = cv
	}
	return args, 0, nil
}

// ConformRows casts every row to s with ConformRow and returns a slice the
// caller owns the header of: rows itself, capped so that an append copies,
// when no cast changes a value; else a copy that shares every row no cast
// changes. No rows come back as nil.
func ConformRows(rows []Row, s Schema) ([]Row, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	out := rows[:len(rows):len(rows)]
	for i, r := range rows {
		cr, err := ConformRow(r, s)
		if err != nil {
			return nil, err
		}
		if len(cr) == 0 || &cr[0] == &r[0] {
			continue
		}
		if &out[0] == &rows[0] {
			out = slices.Clone(out)
		}
		out[i] = cr
	}
	return out, nil
}

// Table is a fully materialised result: a schema plus rows. It is the unit
// returned by UDTFs, by the wrapper interface, and by the embedded query
// API.
type Table struct {
	Schema Schema
	Rows   []Row
}

// NewTable creates an empty table with the given schema.
func NewTable(s Schema) *Table { return &Table{Schema: s} }

// Append adds a row after validating it against the table schema.
func (t *Table) Append(r Row) error {
	if err := r.Validate(t.Schema); err != nil {
		return err
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// MustAppend adds a row and panics on schema violation; for tests and
// built-in data sets whose shape is statically known.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// String renders the table in a fixed-width text grid, the format used by
// the interactive client and the experiment reports.
func (t *Table) String() string {
	widths := make([]int, len(t.Schema))
	for i, c := range t.Schema {
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.Format()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range t.Schema {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c.Name)
	}
	b.WriteByte('\n')
	for i := range t.Schema {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, r := range cells {
		for i, s := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
