// Morsel-driven operators. Sequential scans, the fused scan→aggregate, hash
// joins, index nested-loop probes, grouped aggregation and ORDER BY split
// their input into work units that the morsel scheduler runs on a small
// worker pool. At dop 1 the whole input is one unit run on the calling
// goroutine — one accumulator, one output buffer, nothing to merge or
// concatenate. At higher dops units are fixed-size row morsels claimed from
// a shared cursor (Leis et al., "Morsel-Driven Parallelism"). Every
// operator buffers its output per unit and concatenates the buffers in unit
// order, so the emitted row order — and therefore every downstream result,
// including ORDER BY tie-breaks and first-appearance group order — does not
// depend on the degree of parallelism. Meter charges do not either:
// parallelism shrinks wall-clock time, never the simulated work, which is
// what keeps the paper's cost numbers reproducible at any dop.
package executor

import (
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/morsel"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// DefaultMorselSize is the number of rows per morsel at dop > 1. Small
// enough that the repo's scaled-down tables still split into enough morsels
// to keep a handful of workers busy, large enough that the claim overhead
// (one atomic add per morsel) is noise.
const DefaultMorselSize = 512

// unit is one work unit's output: its rows in input order, or its partial
// group state, plus the rows it examined and matched (scan feedback).
type unit struct {
	rows              [][]value.Datum
	ga                *groupAccumulator
	examined, matched int
}

// runUnits partitions [0, n) into work units and runs fn over each on the
// statement's worker pool, returning the units in input order. At dop 1 the
// whole input is one unit, run on the calling goroutine; at higher dops the
// units are morsels that workers claim one at a time, which balances load.
// The statement context is checked before every unit, and a panicking unit
// fails the operator with an error.
func runUnits(rt *Runtime, n int, fn func(lo, hi int) (unit, error)) ([]unit, error) {
	size := rt.morselSize()
	if rt.dop() == 1 {
		size = max(n, 1)
	}
	units := make([]unit, morsel.Count(n, size))
	err := morsel.Run(rt.Ctx, n, rt.dop(), size, func(u, lo, hi int) (err error) {
		units[u], err = fn(lo, hi)
		return err
	})
	return units, err
}

// gather concatenates the units' rows in unit order and sums their counts.
// A lone unit — every operator at dop 1 — is returned without copying.
func gather(units []unit) unit {
	switch len(units) {
	case 0:
		return unit{}
	case 1:
		return units[0]
	}
	total := 0
	for _, u := range units {
		total += len(u.rows)
	}
	out := unit{rows: make([][]value.Datum, 0, total)}
	for _, u := range units {
		out.rows = append(out.rows, u.rows...)
		out.examined += u.examined
		out.matched += u.matched
	}
	return out
}

// mergeGroups folds the units' partial group states in unit order, which
// reproduces the first-appearance group order of a single accumulator.
// Integer aggregates are exact at any dop; float SUM/AVG may differ in the
// last bits at dop > 1 since partial sums associate differently.
func (ex *executor) mergeGroups(units []unit, rel *relation) *groupAccumulator {
	var out *groupAccumulator
	for _, u := range units {
		switch {
		case u.ga == nil:
		case out == nil:
			out = u.ga
		default:
			out.mergeFrom(u.ga)
		}
	}
	if out == nil {
		out = newGroupAccumulator(ex.blk, rel)
	}
	return out
}

// scanUnits runs the compiled filter over the snapshot chunk by chunk in
// work units, calling emit with each chunk's selection vector. All units
// share one snapshot, so workers see a consistent table image without
// taking any lock. Each unit probes the storage.scan fault point, so an
// injected page-read error surfaces from any worker, and checks the
// statement context at every chunk.
func (ex *executor) scanUnits(snap *storage.Snapshot, f *chunkFilter, emit func(u *unit, ch *storage.Chunk, sel []int) error) ([]unit, error) {
	return runUnits(ex.rt, snap.NumRows(), func(lo, hi int) (unit, error) {
		if err := faultinject.Hit(faultinject.StorageScan); err != nil {
			return unit{}, err
		}
		var u unit
		var sel []int
		var err error
		snap.Range(lo, hi, func(ch *storage.Chunk, _, clo, chi int) bool {
			if err = ex.rt.ctxErr(); err != nil {
				return false
			}
			u.examined += chi - clo
			sel = f.selectRange(ch, clo, chi, sel)
			u.matched += len(sel)
			err = emit(&u, ch, sel)
			return err == nil
		})
		return u, err
	})
}

// seqScan materializes the rows of the snapshot that pass preds, in storage
// order, plus the examined row count. The reservation is charged per chunk
// with the exact bytes of the materialized rows.
func (ex *executor) seqScan(snap *storage.Snapshot, preds []qgm.Predicate) ([][]value.Datum, float64, error) {
	needBytes := ex.rt.Mem != nil
	units, err := ex.scanUnits(snap, compileFilter(preds, snap.Schema()), func(u *unit, ch *storage.Chunk, sel []int) error {
		var bytes int64
		for _, i := range sel {
			row := ch.AppendRowTo(make([]value.Datum, 0, ch.NumCols()), i)
			u.rows = append(u.rows, row)
			if needBytes {
				bytes += govern.ExactRowBytes(row)
			}
		}
		if needBytes {
			if err := ex.rt.grow(bytes); err != nil {
				return fmt.Errorf("executor: scan %s output: %w", snap.Name(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := gather(units)
	return out.rows, float64(out.examined), nil
}

// fnv1a hashes an encoded join key to a build partition.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

// hashJoin builds a hash table on the left rows and probes it with the
// right rows. The table is split into one partition per worker. Build: join
// keys are computed in work units, then each partition inserts the rows
// hashing to it — bucket lists stay in left-row order because every key
// belongs to exactly one partition and each partition walks the left side
// in order. Probe: right-side units look keys up in the (now read-only)
// partitions and buffer their matches, so the output is in right-row
// order, each right row's matches in left-row order.
func (ex *executor) hashJoin(left, right *relation, lCols, rCols []int) ([][]value.Datum, error) {
	parts := uint32(ex.rt.dop())
	partOf := func(key []byte) uint32 {
		if parts == 1 {
			return 0
		}
		return fnv1a(key) % parts
	}
	nL := len(left.rows)
	lKeys := make([]string, nL)
	lPart := make([]uint32, nL)
	const noPart = ^uint32(0) // NULL key: joins nothing
	if _, err := runUnits(ex.rt, nL, func(lo, hi int) (unit, error) {
		var kb []byte
		for i := lo; i < hi; i++ {
			var ok bool
			if kb, ok = appendJoinKeyTo(kb[:0], left.rows[i], lCols); ok {
				lKeys[i] = string(kb)
				lPart[i] = partOf(kb)
			} else {
				lPart[i] = noPart
			}
		}
		return unit{}, nil
	}); err != nil {
		return nil, err
	}

	tables := make([]map[string][]int, parts)
	if err := morsel.Run(ex.rt.Ctx, int(parts), int(parts), 1, func(p, _, _ int) error {
		tbl := make(map[string][]int, nL/int(parts))
		for i, key := range lKeys {
			if lPart[i] == uint32(p) {
				tbl[key] = append(tbl[key], i)
			}
		}
		tables[p] = tbl
		return nil
	}); err != nil {
		return nil, err
	}

	units, err := runUnits(ex.rt, len(right.rows), func(lo, hi int) (unit, error) {
		var u unit
		var kb []byte
		for _, rrow := range right.rows[lo:hi] {
			var ok bool
			if kb, ok = appendJoinKeyTo(kb[:0], rrow, rCols); !ok {
				continue
			}
			for _, li := range tables[partOf(kb)][string(kb)] {
				u.rows = append(u.rows, concatRows(left.rows[li], rrow))
			}
		}
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	return gather(units).rows, nil
}

// stableSort sorts rows in place with a stable merge sort over contiguous
// runs, one per worker (a single run, sorted in place, at dop 1): the runs
// are stable-sorted concurrently, then merged pairwise, ties taking the
// earlier run first. The result is the unique stable order, identical to
// sort.SliceStable at any dop.
func (ex *executor) stableSort(rows [][]value.Datum, less func(a, b []value.Datum) bool) error {
	n := len(rows)
	runs := min(ex.rt.dop(), n/1024+1) // keep runs big enough to beat the merge overhead
	bounds := make([]int, runs+1)
	for i := range bounds {
		bounds[i] = i * n / runs
	}
	if err := morsel.Run(ex.rt.Ctx, runs, runs, 1, func(r, _, _ int) error {
		s := rows[bounds[r]:bounds[r+1]]
		sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
		return nil
	}); err != nil || runs == 1 { // a lone run is sorted in place already
		return err
	}

	src, dst := rows, make([][]value.Datum, n)
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		if err := morsel.Run(ex.rt.Ctx, pairs, pairs, 1, func(p, _, _ int) error {
			mergeRuns(dst, src, bounds[2*p], bounds[2*p+1], bounds[2*p+2], less)
			return nil
		}); err != nil {
			return err
		}
		next := []int{0}
		for p := 1; p <= pairs; p++ {
			next = append(next, bounds[2*p])
		}
		if len(bounds)%2 == 0 { // odd run count: carry the last run through
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			next = append(next, hi)
		}
		src, dst = dst, src
		bounds = next
	}
	if &src[0] != &rows[0] {
		copy(rows, src)
	}
	return nil
}

// mergeRuns stable-merges src[lo:mid] and src[mid:hi] into dst[lo:hi].
func mergeRuns(dst, src [][]value.Datum, lo, mid, hi int, less func(a, b []value.Datum) bool) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if i < mid && (j >= hi || !less(src[j], src[i])) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}

// indexNLProbe probes the inner table's index with each left row in work
// units. Each lookup's rows are read through the snapshot its positions
// index, lock-free; per-unit buffers keep the output in left-row order.
// Returns the joined rows plus the examined and matched counts for the
// feedback actuals.
func (ex *executor) indexNLProbe(left *relation, inner *optimizer.Scan, ix *index.Index, driving *qgm.JoinPredicate, preds []qgm.JoinPredicate) (unit, error) {
	keyCol := left.col(driving.LeftSlot, driving.LeftOrd)
	units, err := runUnits(ex.rt, len(left.rows), func(lo, hi int) (unit, error) {
		var u unit
		for _, lrow := range left.rows[lo:hi] {
			key := lrow[keyCol]
			if key.IsNull() {
				continue
			}
			eq := index.Bound{Value: key, Inclusive: true}
			positions, snap := ix.RangeAt(eq, eq)
			for _, pos := range positions {
				irow, err := snap.Row(pos)
				if err != nil {
					return unit{}, err
				}
				u.examined++
				if !matchesAll(inner.Preds, irow) {
					continue
				}
				u.matched++
				okRow := true
				for i := range preds {
					jp := preds[i]
					if jp == *driving {
						continue
					}
					lv := lrow[left.col(jp.LeftSlot, jp.LeftOrd)]
					if !lv.Equal(irow[jp.RightOrd]) {
						okRow = false
						break
					}
				}
				if okRow {
					u.rows = append(u.rows, concatRows(lrow, irow))
				}
			}
		}
		return u, nil
	})
	if err != nil {
		return unit{}, err
	}
	return gather(units), nil
}
