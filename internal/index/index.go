// Package index provides sorted secondary indexes over storage tables.
//
// Indexes give the optimizer its access-path choice: a table scan reads
// every row, an index range scan touches only the rows matching a sargable
// predicate — which is exactly the decision that goes wrong when the
// optimizer's selectivity estimates are inaccurate, and exactly the decision
// JITS improves by supplying fresh query-specific statistics.
//
// An index is a sorted array of (key, row position) pairs rebuilt lazily
// whenever the underlying table's version changes. Positions returned by a
// lookup are row numbers of the table version the index was built from;
// RangeAt returns a snapshot of that version with them. Read rows through
// it: concurrent DML may have moved or added rows in the live table since.
package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/value"
)

type entry struct {
	key value.Datum
	row int
}

// Index is a sorted secondary index over one column of one table.
type Index struct {
	mu      sync.Mutex
	name    string
	table   *storage.Table
	column  string
	ordinal int

	builtVersion uint64
	built        bool
	entries      []entry
	rebuilds     int
}

// New creates an index on table.column. The index is built lazily on first
// use.
func New(name string, table *storage.Table, column string) (*Index, error) {
	ord, ok := table.Schema().Ordinal(column)
	if !ok {
		return nil, fmt.Errorf("index: table %s has no column %q", table.Name(), column)
	}
	return &Index{name: name, table: table, column: column, ordinal: ord}, nil
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *storage.Table { return ix.table }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Rebuilds reports how many times the index has been (re)built. The cost
// model does not read it and charges no index maintenance; it is a counter
// for benchmarks and tests, which sum it over every index to count the
// lazy full rebuilds that DML triggers.
func (ix *Index) Rebuilds() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.rebuilds
}

// ensure rebuilds the sorted entries if the table changed and returns a
// snapshot of the version they index. Caller must hold mu.
func (ix *Index) ensure() *storage.Snapshot {
	// Version and rows come from one snapshot, so the recorded builtVersion
	// always matches the data actually indexed (reading Version() and then
	// scanning separately could attribute a newer version to older rows).
	snap := ix.table.Snapshot()
	if ix.built && snap.Version() == ix.builtVersion {
		return snap
	}
	ix.entries = ix.entries[:0]
	// Stream the indexed column's chunk vectors directly — the rebuild
	// touches one column array, not materialized rows.
	base := 0
	for ci := 0; ci < snap.NumChunks(); ci++ {
		ch := snap.Chunk(ci)
		vec := ch.Col(ix.ordinal)
		for i := 0; i < ch.Rows(); i++ {
			ix.entries = append(ix.entries, entry{key: vec.Datum(i), row: base + i})
		}
		base += ch.Rows()
	}
	sort.SliceStable(ix.entries, func(i, j int) bool {
		c := ix.entries[i].key.Compare(ix.entries[j].key)
		if c != 0 {
			return c < 0
		}
		return ix.entries[i].row < ix.entries[j].row
	})
	ix.builtVersion = snap.Version()
	ix.built = true
	ix.rebuilds++
	return snap
}

// Lookup returns the positions of all rows whose key equals key, in row
// order. NULL keys never match (SQL equality semantics).
func (ix *Index) Lookup(key value.Datum) []int {
	if key.IsNull() {
		return nil
	}
	return ix.Range(Bound{Value: key, Inclusive: true}, Bound{Value: key, Inclusive: true})
}

// Bound is one end of a range scan. Unbounded ends use Unbounded().
type Bound struct {
	Value     value.Datum
	Inclusive bool
	open      bool
}

// Unbounded returns a bound that does not constrain the scan.
func Unbounded() Bound { return Bound{open: true} }

// IsUnbounded reports whether the bound is absent.
func (b Bound) IsUnbounded() bool { return b.open }

// Range returns positions of rows with lo ≤/< key ≤/< hi, in key order.
// NULL keys are stored at the front of the index but are never returned:
// SQL comparisons with NULL are not true.
func (ix *Index) Range(lo, hi Bound) []int {
	positions, _ := ix.RangeAt(lo, hi)
	return positions
}

// RangeAt is Range plus the table snapshot the positions are row numbers
// of. Rows read through it match the returned keys even when other
// sessions have changed the table since.
func (ix *Index) RangeAt(lo, hi Bound) ([]int, *storage.Snapshot) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	snap := ix.ensure()

	n := len(ix.entries)
	// Rows with NULL keys occupy a prefix (NULL sorts first); skip them.
	firstNonNull := sort.Search(n, func(i int) bool { return !ix.entries[i].key.IsNull() })

	start := firstNonNull
	if !lo.IsUnbounded() {
		start = sort.Search(n, func(i int) bool {
			c := ix.entries[i].key.Compare(lo.Value)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
		if start < firstNonNull {
			start = firstNonNull
		}
	}
	end := n
	if !hi.IsUnbounded() {
		end = sort.Search(n, func(i int) bool {
			c := ix.entries[i].key.Compare(hi.Value)
			if hi.Inclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil, snap
	}
	out := make([]int, 0, end-start)
	for _, e := range ix.entries[start:end] {
		out = append(out, e.row)
	}
	return out, snap
}

// Len returns the number of indexed entries (including NULL keys).
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ensure()
	return len(ix.entries)
}

// Set is the database's index registry: table name → column name → index.
type Set struct {
	mu      sync.RWMutex
	byTable map[string]map[string]*Index
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{byTable: make(map[string]map[string]*Index)}
}

// Create builds and registers an index for table.column. Creating a second
// index on the same column is an error.
func (s *Set) Create(name string, table *storage.Table, column string) (*Index, error) {
	ix, err := New(name, table, column)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cols := s.byTable[table.Name()]
	if cols == nil {
		cols = make(map[string]*Index)
		s.byTable[table.Name()] = cols
	}
	if _, dup := cols[column]; dup {
		return nil, fmt.Errorf("index: %s.%s is already indexed", table.Name(), column)
	}
	cols[column] = ix
	return ix, nil
}

// Find returns the index on table.column, if any.
func (s *Set) Find(table, column string) (*Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, ok := s.byTable[table][column]
	return ix, ok
}

// ForTable returns the indexed column names of a table, sorted.
func (s *Set) ForTable(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cols := make([]string, 0, len(s.byTable[table]))
	for c := range s.byTable[table] {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}
