// Package storage implements the in-memory relational storage engine that
// backs both the FDBS's local tables and the private databases of the
// simulated application systems.
//
// Tables are heap-organised slices of rows guarded by an RW mutex, with
// optional single-column hash indexes that are maintained transparently on
// every mutation. Rows stay in insertion order: a delete closes its gaps
// without reordering the survivors, and an index lookup returns its matches
// in that same order. Scans operate on copy-on-read snapshots, so a running
// query never observes a torn mutation.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fedwf/internal/types"
)

// Table is one heap table with optional hash indexes.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	rows    []types.Row
	indexes map[string]*hashIndex // lower-cased column name -> index
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
		indexes: make(map[string]*hashIndex),
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
		idx.add(coerced, pos)
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

// Scan returns a snapshot of all rows. The returned slice is fresh but the
// rows are shared; callers must not mutate row values (values are
// immutable by construction).
func (t *Table) Scan() []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]types.Row, len(t.rows))
	copy(out, t.rows)
	return out
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
	return t.update(nil, false, pred, transform)
}

// UpdateKey is Update for a predicate that implies column = key: when the
// column is indexed only the rows of that index bucket are examined. pred
// is still the whole predicate and decides every candidate.
func (t *Table) UpdateKey(column string, key types.Value, pred func(types.Row) bool, transform func(types.Row) types.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket, keyed := t.bucket(column, key)
	// update re-files rows whose key changes, which edits the bucket.
	return t.update(append([]int(nil), bucket...), keyed, pred, transform)
}

// update is the body of Update and UpdateKey: it visits, in heap order,
// every row (keyed false) or the rows at the ascending positions cands.
func (t *Table) update(cands []int, keyed bool, pred func(types.Row) bool, transform func(types.Row) types.Row) (int, error) {
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
		if !pred(old) {
			continue
		}
		nr, err := types.CoerceRow(transform(old.Clone()), t.schema)
		if err != nil {
			return n, fmt.Errorf("storage: update %s: %w", t.name, err)
		}
		for _, idx := range t.indexes {
			// Equal values hash equally and the row keeps its position,
			// so an unchanged key leaves the index as it is.
			if old[idx.column].Equal(nr[idx.column]) {
				continue
			}
			idx.remove(old, i)
			idx.add(nr, i)
		}
		t.rows[i] = nr
		n++
	}
	return n, nil
}

// Delete removes every row satisfying pred and returns how many were
// removed. The surviving rows keep their relative (insertion) order.
func (t *Table) Delete(pred func(types.Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delete(nil, false, pred)
}

// DeleteKey is Delete for a predicate that implies column = key; see
// UpdateKey.
func (t *Table) DeleteKey(column string, key types.Value, pred func(types.Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket, keyed := t.bucket(column, key)
	return t.delete(bucket, keyed, pred)
}

// delete is the body of Delete and DeleteKey; cands and keyed are as in
// update. It closes the gaps in place — heap and index positions shift
// down past each victim — so it allocates for the victims only.
func (t *Table) delete(cands []int, keyed bool, pred func(types.Row) bool) int {
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
		if pred(t.rows[i]) {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		return 0
	}
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
		idx.deleteRows(victims)
	}
	return len(victims)
}

// bucket returns the index bucket that holds every row whose column equals
// key (and, on a hash collision, others), or false when the column has no
// index. The slice is the index's own: read it under the lock, do not keep
// it across a mutation.
func (t *Table) bucket(column string, key types.Value) ([]int, bool) {
	idx, ok := t.indexes[strings.ToLower(column)]
	if !ok {
		return nil, false
	}
	return idx.buckets[key.Hash()], true
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	for _, idx := range t.indexes {
		idx.rebuild(nil)
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
	key := strings.ToLower(column)
	if _, ok := t.indexes[key]; ok {
		return nil
	}
	idx := &hashIndex{column: ci, buckets: make(map[uint64][]int)}
	idx.rebuild(t.rows)
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the named column.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(column)]
	return ok
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
	if bucket, ok := t.bucket(column, v); ok {
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
	t, ok := s.tables[strings.ToLower(name)]
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
