// Package storage implements the in-memory relational storage engine that
// backs both the FDBS's local tables and the private databases of the
// simulated application systems.
//
// Tables are heap-organised slices of rows guarded by an RW mutex, with
// optional single-column hash indexes that are maintained transparently on
// every mutation. Rows stay in insertion order: a delete closes its gaps
// without reordering the survivors, and an index lookup returns its matches
// in that same order. Scans operate on copy-on-write snapshots, so a running
// query never observes a torn mutation: a scan hands out the heap itself,
// capped at its length, and marks it shared; the first update or delete
// after it copies the row headers before writing in place. Each scan thus
// costs at most one copy, paid by the next writer, and none when no write
// follows it. An insert appends past every snapshot's cap and a truncate
// starts a new heap, so neither copies.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fedwf/internal/types"
)

// Table is one heap table with optional hash indexes.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	rows    []types.Row
	indexes []*hashIndex // by column position; nil where a column has none
	// shared is set by Scan (under the read lock, hence atomic) while a
	// snapshot may alias rows; own clears it (under the write lock).
	shared atomic.Bool
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema types.Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: table name must not be empty")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("storage: table %s needs at least one column", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("storage: duplicate column %s in table %s", c.Name, name)
		}
		seen[lc] = true
	}
	return &Table{
		name:    name,
		schema:  schema.Clone(),
		indexes: make([]*hashIndex, len(schema)),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() types.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema.Clone()
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent, without copying the schema.
func (t *Table) ColumnIndex(name string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema.ColumnIndex(name)
}

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates, coerces, and appends a row.
func (t *Table) Insert(r types.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	coerced, err := types.CoerceRow(r, t.schema)
	if err != nil {
		return fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	pos := len(t.rows)
	t.rows = append(t.rows, coerced)
	for _, idx := range t.indexes {
		if idx != nil {
			idx.add(coerced, pos)
		}
	}
	return nil
}

// InsertAll inserts every row, stopping at the first error.
func (t *Table) InsertAll(rows []types.Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Scan returns a snapshot of all rows without copying them: the heap
// itself, capped at its length, which no later write changes (see own).
// Callers must not write into the slice or its rows (values are immutable
// by construction); appending to either reallocates.
func (t *Table) Scan() []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.shared.Load() { // concurrent scans then only read the flag
		t.shared.Store(true)
	}
	return t.rows[:len(t.rows):len(t.rows)]
}

// own makes the heap safe to write in place: when a snapshot may alias it,
// the row headers move to a copy that no snapshot sees. Call it under the
// write lock before any store into t.rows[:len(t.rows)].
func (t *Table) own() {
	if t.shared.Load() {
		t.rows = append(make([]types.Row, 0, cap(t.rows)), t.rows...)
		t.shared.Store(false)
	}
}

// Select returns a snapshot of the rows satisfying pred.
func (t *Table) Select(pred func(types.Row) bool) []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []types.Row
	for _, r := range t.rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Update rewrites every row satisfying pred with transform(row) and
// returns the number of rows changed. The transform receives a clone and
// its result is validated against the schema.
func (t *Table) Update(pred func(types.Row) bool, transform func(types.Row) types.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.update(nil, false,
		func(r types.Row) (bool, error) { return pred(r), nil },
		func(r types.Row) (types.Row, error) { return transform(r), nil })
}

// UpdateKey is Update for a predicate that implies column = key: when the
// column is indexed only the rows of that index bucket are examined. pred
// is still the whole predicate and decides every candidate. pred and
// transform may raise: the first row either raises on stops the update
// with that error, as a row that fails its schema does, and the rows
// before it stay updated.
func (t *Table) UpdateKey(column string, key types.Value, pred func(types.Row) (bool, error), transform func(types.Row) (types.Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket, keyed := t.bucket(t.schema.ColumnIndex(column), key)
	// update re-files rows whose key changes, which edits the bucket.
	return t.update(append([]int(nil), bucket...), keyed, pred, transform)
}

// update is the body of Update and UpdateKey: it visits, in heap order,
// every row (keyed false) or the rows at the ascending positions cands.
func (t *Table) update(cands []int, keyed bool, pred func(types.Row) (bool, error), transform func(types.Row) (types.Row, error)) (int, error) {
	visits := len(t.rows)
	if keyed {
		visits = len(cands)
	}
	n := 0
	for k := 0; k < visits; k++ {
		i := k
		if keyed {
			i = cands[k]
		}
		old := t.rows[i]
		ok, err := pred(old)
		if err != nil {
			return n, err
		}
		if !ok {
			continue
		}
		nr, err := transform(old.Clone())
		if err != nil {
			return n, err
		}
		if nr, err = types.CoerceRow(nr, t.schema); err != nil {
			return n, fmt.Errorf("storage: update %s: %w", t.name, err)
		}
		for ci, idx := range t.indexes {
			// Equal values hash equally and the row keeps its position,
			// so an unchanged key leaves the index as it is.
			if idx == nil || old[ci].Equal(nr[ci]) {
				continue
			}
			idx.remove(old, i)
			idx.add(nr, i)
		}
		t.own()
		t.rows[i] = nr
		n++
	}
	return n, nil
}

// DeleteKey removes every row satisfying pred and returns how many were
// removed; the surviving rows keep their relative (insertion) order. pred
// implies column = key, as in UpdateKey; a column that is not indexed, or
// "", visits every row. When pred raises on a row, DeleteKey removes
// nothing and returns that error.
func (t *Table) DeleteKey(column string, key types.Value, pred func(types.Row) (bool, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cands, keyed := t.bucket(t.schema.ColumnIndex(column), key)
	// Visit as update does, then close the gaps in place — heap and index
	// positions shift down past each victim — allocating for the victims
	// only.
	visits := len(t.rows)
	if keyed {
		visits = len(cands)
	}
	var victims []int // ascending
	for k := 0; k < visits; k++ {
		i := k
		if keyed {
			i = cands[k]
		}
		ok, err := pred(t.rows[i])
		if err != nil {
			return 0, err
		}
		if ok {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}
	t.own()
	w, v := victims[0], 0
	for r := victims[0]; r < len(t.rows); r++ {
		if v < len(victims) && victims[v] == r {
			v++
			continue
		}
		t.rows[w] = t.rows[r]
		w++
	}
	// The vacated tail would otherwise keep the moved rows reachable.
	clear(t.rows[w:])
	t.rows = t.rows[:w]
	for _, idx := range t.indexes {
		if idx != nil {
			idx.deleteRows(victims)
		}
	}
	return len(victims), nil
}

// bucket returns the index bucket that holds every row whose column at
// position ci equals key (and, on a hash collision, others), or false when
// that column has no index or ci is -1 (no such column). The slice is the
// index's own: read it under the lock, do not keep it across a mutation.
func (t *Table) bucket(ci int, key types.Value) ([]int, bool) {
	if ci < 0 || t.indexes[ci] == nil {
		return nil, false
	}
	return t.indexes[ci].buckets[key.Hash()], true
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.shared.Store(false)
	for _, idx := range t.indexes {
		if idx != nil {
			idx.rebuild(nil)
		}
	}
}

// CreateIndex builds a hash index on the named column. Creating an index
// that already exists is a no-op.
func (t *Table) CreateIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: no column %s in table %s", column, t.name)
	}
	if t.indexes[ci] != nil {
		return nil
	}
	idx := &hashIndex{column: ci, buckets: make(map[uint64][]int)}
	idx.rebuild(t.rows)
	t.indexes[ci] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the named column.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ci := t.schema.ColumnIndex(column)
	return ci >= 0 && t.indexes[ci] != nil
}

// Lookup returns a snapshot, in heap order, of the rows whose column equals
// v, using the hash index when present and a scan otherwise.
func (t *Table) Lookup(column string, v types.Value) ([]types.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: no column %s in table %s", column, t.name)
	}
	var out []types.Row
	if bucket, ok := t.bucket(ci, v); ok {
		out = make([]types.Row, 0, len(bucket))
		for _, pos := range bucket {
			if t.rows[pos][ci].Equal(v) {
				out = append(out, t.rows[pos])
			}
		}
		return out, nil
	}
	for _, r := range t.rows {
		if r[ci].Equal(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// hashIndex maps value hashes to the heap positions of the rows holding
// them, ascending, so a bucket reads out in heap order; collisions are
// resolved by re-checking equality at lookup time. A bucket is never empty.
type hashIndex struct {
	column  int
	buckets map[uint64][]int
}

func (ix *hashIndex) add(r types.Row, pos int) {
	h := r[ix.column].Hash()
	bucket := append(ix.buckets[h], pos)
	// An insert appends the highest position; only an update that changes
	// the key files a row below existing ones.
	for i := len(bucket) - 1; i > 0 && bucket[i-1] > pos; i-- {
		bucket[i-1], bucket[i] = bucket[i], bucket[i-1]
	}
	ix.buckets[h] = bucket
}

func (ix *hashIndex) remove(r types.Row, pos int) {
	h := r[ix.column].Hash()
	bucket := ix.buckets[h]
	i := sort.SearchInts(bucket, pos)
	switch {
	case i == len(bucket) || bucket[i] != pos:
	case len(bucket) == 1:
		delete(ix.buckets, h)
	default:
		ix.buckets[h] = append(bucket[:i], bucket[i+1:]...)
	}
}

// deleteRows drops the ascending positions victims from every bucket and
// moves each surviving position down by the number of victims below it,
// which is where Table.delete has just moved the row.
func (ix *hashIndex) deleteRows(victims []int) {
	for h, bucket := range ix.buckets {
		if bucket[len(bucket)-1] < victims[0] {
			continue
		}
		kept := bucket[:0]
		for _, p := range bucket {
			below := sort.SearchInts(victims, p)
			if below < len(victims) && victims[below] == p {
				continue
			}
			kept = append(kept, p-below)
		}
		switch {
		case len(kept) == 0:
			delete(ix.buckets, h)
		case len(kept) < len(bucket):
			ix.buckets[h] = kept
		}
	}
}

func (ix *hashIndex) rebuild(rows []types.Row) {
	ix.buckets = make(map[uint64][]int, len(rows))
	for i, r := range rows {
		ix.add(r, i)
	}
}

// Store is a named collection of tables (one database).
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table // lower-cased name -> table
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// Create adds a new table; it fails if the name is taken.
func (s *Store) Create(name string, schema types.Schema) (*Table, error) {
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	s.tables[key] = t
	return t, nil
}

// Get returns the named table, or an error when absent.
func (s *Store) Get(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := types.LookupFold(s.tables, name)
	if !ok {
		return nil, fmt.Errorf("storage: no table named %s", name)
	}
	return t, nil
}

// Drop removes the named table.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; !ok {
		return fmt.Errorf("storage: no table named %s", name)
	}
	delete(s.tables, key)
	return nil
}

// List returns the table names in sorted order.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}
