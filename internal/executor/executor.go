// Package executor runs optimized plans against storage. It implements the
// physical operators the optimizer chooses among — table scan, index range
// scan, hash join, index nested-loop join, plain nested loops — plus the
// block-level finishing operators (grouping/aggregation, DISTINCT, ORDER BY,
// LIMIT, projection).
//
// Two responsibilities matter for the paper's pipeline beyond producing
// correct rows. First, every operator charges the execution meter for the
// work it *actually* performs, so a plan chosen from bad estimates genuinely
// costs more simulated time. Second, each base-table access records its
// actual cardinalities (the monitoring LEO does along plan edges), which the
// engine turns into StatHistory error factors after the query completes.
package executor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Runtime bundles the execution environment.
type Runtime struct {
	DB      *storage.Database
	Indexes *index.Set
	Weights costmodel.Weights
	Meter   *costmodel.Meter
	// Ctx carries the statement's deadline/cancellation; nil behaves like
	// context.Background(). Operators check it before every work unit and
	// scans also at every chunk, so a cancelled statement stops within one
	// chunk or morsel of work per worker.
	Ctx context.Context
	// Parallelism is the degree of intra-query parallelism: the number of
	// workers the morsel operators fan out to. Values <= 1 run each
	// operator as one work unit on the calling goroutine; higher values
	// dispatch morsels to a worker pool. The meter is charged the same
	// totals at any value (the simulated work is the same — only the wall
	// clock shrinks).
	Parallelism int
	// MorselSize overrides the number of rows per morsel at Parallelism > 1;
	// 0 selects DefaultMorselSize. Tests shrink it to exercise multi-morsel
	// paths on small tables.
	MorselSize int
	// Stats, when non-nil, collects per-plan-node runtime actuals (rows,
	// metered units, wall time) for EXPLAIN ANALYZE. Leave nil on the
	// normal path: collection costs a meter read and a clock read per
	// operator.
	Stats *ExecStats
	// Mem is the statement's memory reservation. Buffering operators (scan
	// materialization, hash-join build, merge-join sort copies, aggregation
	// state, ORDER BY scratch) charge it before allocating and fail with a
	// wrapped govern.ErrMemoryBudget when the budget is exhausted. Nil (the
	// default) disables accounting.
	Mem *govern.Reservation
	// Reopt, when non-nil, arms mid-query re-optimization: join-input
	// materializations become checkpoints that register their relations in
	// the state and may unwind execution with *ReoptTriggered when the
	// observed cardinality blows past the plan's estimate. The same state
	// resolves optimizer.Materialized leaves on re-planned attempts. Nil
	// (the default) costs one pointer check per pipeline breaker.
	Reopt *ReoptState
}

// dop returns the effective degree of parallelism (always >= 1).
func (rt *Runtime) dop() int {
	if rt.Parallelism < 1 {
		return 1
	}
	return rt.Parallelism
}

// ctxErr reports the statement context's cancellation error, if any.
func (rt *Runtime) ctxErr() error {
	if rt.Ctx == nil {
		return nil
	}
	return rt.Ctx.Err()
}

func (rt *Runtime) morselSize() int {
	if rt.MorselSize > 0 {
		return rt.MorselSize
	}
	return DefaultMorselSize
}

func (rt *Runtime) charge(units float64) {
	if rt.Meter != nil {
		rt.Meter.Add(units)
	}
}

// grow charges bytes against the statement's memory reservation. Charges are
// enforced at operator boundaries — an operator reserves its output before
// (or immediately after) materializing it, so accounted growth is bounded to
// one operator's output beyond the budget check. A nil reservation is free.
func (rt *Runtime) grow(bytes int64) error {
	return rt.Mem.Grow(bytes)
}

// shrink returns transient scratch bytes (sort buffers) to the reservation.
func (rt *Runtime) shrink(bytes int64) {
	rt.Mem.Shrink(bytes)
}

// growRows charges n materialized rows of the given column width.
func (rt *Runtime) growRows(n, cols int) error {
	return rt.grow(int64(n) * govern.EstimateRowBytes(cols))
}

// rowHeaderBytes is the accounted cost of referencing (not copying) a row:
// one slice header. Merge-join sort copies and ORDER BY scratch charge it.
const rowHeaderBytes = 24

// hashEntryBytes is the accounted per-entry cost of a hash-join build table.
const hashEntryBytes = 48

// NodeStats holds the runtime actuals of one plan operator. Units and Wall
// are cumulative over the operator's subtree — the same convention the
// optimizer's Cost() estimate uses — so estimated and actual columns in
// EXPLAIN ANALYZE compare like for like.
type NodeStats struct {
	Rows  float64
	Units float64
	Wall  time.Duration
}

// ExecStats maps plan nodes to their runtime actuals. It is populated by
// the executor's single driver goroutine (morsel workers report through
// their parent operator, which blocks until they finish), so it needs no
// locking; read it only after Execute returns.
type ExecStats struct {
	nodes map[optimizer.Node]NodeStats
}

// NewExecStats returns an empty collector to hang on Runtime.Stats.
func NewExecStats() *ExecStats {
	return &ExecStats{nodes: make(map[optimizer.Node]NodeStats)}
}

// Lookup returns the recorded actuals for a plan node.
func (s *ExecStats) Lookup(n optimizer.Node) (NodeStats, bool) {
	if s == nil {
		return NodeStats{}, false
	}
	st, ok := s.nodes[n]
	return st, ok
}

// ScanActual reports what one base-table access really saw — the raw
// material for query feedback.
type ScanActual struct {
	Slot     int
	Table    string
	Alias    string
	BaseRows float64 // table cardinality at execution time
	Examined float64 // rows touched (fetched through the access path)
	Matched  float64 // rows surviving all local predicates
	// Conditioned marks index nested-loop inner scans, where the examined
	// rows are already filtered by the join key: Matched/Examined then
	// approximates the local selectivity conditioned on the join.
	Conditioned bool
	Trace       *optimizer.Trace
}

// ActualSelectivity returns the observed selectivity of the scan's local
// predicate group.
func (a ScanActual) ActualSelectivity() float64 {
	if a.Conditioned {
		if a.Examined == 0 {
			return 0
		}
		return a.Matched / a.Examined
	}
	if a.BaseRows == 0 {
		return 0
	}
	return a.Matched / a.BaseRows
}

// Result is the outcome of executing a block.
type Result struct {
	Columns []string
	Rows    [][]value.Datum
	Actuals []ScanActual
}

// relation is an intermediate result: concatenated base-table rows with a
// map from table slot to column offset.
type relation struct {
	offsets map[int]int
	widths  map[int]int
	width   int
	rows    [][]value.Datum
}

func (r *relation) col(slot, ordinal int) int { return r.offsets[slot] + ordinal }

// Execute runs the plan and applies the block's finishing operators.
//
// Execute never panics: any panic in an operator — a malformed plan hitting
// a Datum accessor, a comparator blowing up inside a sort worker, an
// injected fault — is recovered (the worker pools drain first, so no
// goroutine outlives the call) and returned as an error.
func Execute(blk *qgm.Block, plan optimizer.Node, rt *Runtime) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("executor: recovered panic: %v", p)
		}
	}()
	if cerr := rt.ctxErr(); cerr != nil {
		return nil, cerr
	}
	ex := &executor{blk: blk, rt: rt}
	// Single-table aggregation fuses the scan into the accumulator: chunk
	// vectors feed group state directly, with no materialized relation in
	// between. Meter charges are formula-identical to the unfused pipeline.
	if scan, fusable := plan.(*optimizer.Scan); fusable &&
		scan.IndexColumn == "" && blockAggregates(blk) {
		res, err = ex.runFusedAggScan(scan)
		if err != nil {
			return nil, err
		}
		res, err = ex.finishFrom(res)
	} else {
		rel, rerr := ex.run(plan)
		if rerr != nil {
			return nil, rerr
		}
		res, err = ex.finish(rel)
	}
	if err != nil {
		return nil, err
	}
	res.Actuals = ex.actuals
	sort.Slice(res.Actuals, func(i, j int) bool { return res.Actuals[i].Slot < res.Actuals[j].Slot })
	return res, nil
}

type executor struct {
	blk     *qgm.Block
	rt      *Runtime
	actuals []ScanActual
}

func (ex *executor) run(node optimizer.Node) (*relation, error) {
	if err := ex.rt.ctxErr(); err != nil {
		return nil, err
	}
	if st := ex.rt.Stats; st != nil {
		// Snapshot the meter and clock around the dispatch: the delta is the
		// subtree's cumulative work, since children execute inside it.
		var before float64
		if ex.rt.Meter != nil {
			before = ex.rt.Meter.Units()
		}
		start := time.Now()
		rel, err := ex.dispatch(node)
		if err != nil {
			return nil, err
		}
		after := before
		if ex.rt.Meter != nil {
			after = ex.rt.Meter.Units()
		}
		st.nodes[node] = NodeStats{
			Rows:  float64(len(rel.rows)),
			Units: after - before,
			Wall:  time.Since(start),
		}
		return rel, nil
	}
	return ex.dispatch(node)
}

func (ex *executor) dispatch(node optimizer.Node) (*relation, error) {
	switch n := node.(type) {
	case *optimizer.Scan:
		return ex.runScan(n)
	case *optimizer.Join:
		return ex.runJoin(n)
	case *optimizer.Materialized:
		return ex.runMaterialized(n)
	default:
		return nil, fmt.Errorf("executor: unknown plan node %T", node)
	}
}

func (ex *executor) baseTable(name string) (*storage.Table, error) {
	tbl, ok := ex.rt.DB.Table(name)
	if !ok {
		return nil, fmt.Errorf("executor: table %q does not exist", name)
	}
	return tbl, nil
}

func matchesAll(preds []qgm.Predicate, row []value.Datum) bool {
	for _, p := range preds {
		if !p.Matches(row) {
			return false
		}
	}
	return true
}

func (ex *executor) runScan(n *optimizer.Scan) (*relation, error) {
	tbl, err := ex.baseTable(n.Table)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Hit(faultinject.StorageScan); err != nil {
		return nil, fmt.Errorf("executor: scanning %s: %w", n.Table, err)
	}
	w := ex.rt.Weights
	// One snapshot serves the whole scan: all morsels see the same table
	// image, and no lock is held while operators run.
	snap := tbl.Snapshot()
	width := snap.Schema().NumColumns()
	rel := &relation{
		offsets: map[int]int{n.Slot: 0},
		widths:  map[int]int{n.Slot: width},
		width:   width,
	}
	base := float64(snap.NumRows())
	examined := 0.0

	if n.IndexColumn != "" {
		ix, ok := ex.rt.Indexes.Find(n.Table, n.IndexColumn)
		if !ok {
			return nil, fmt.Errorf("executor: plan uses missing index %s.%s", n.Table, n.IndexColumn)
		}
		positions, isnap, err := indexPositions(ix, *n.IndexPred)
		if err != nil {
			return nil, err
		}
		ex.rt.charge(w.IndexProbe)
		for _, pos := range positions {
			row, err := isnap.Row(pos)
			if err != nil {
				return nil, err
			}
			examined++
			if matchesAll(n.Preds, row) {
				rel.rows = append(rel.rows, row)
			}
		}
		ex.rt.charge(w.IndexRow * examined)
		// Index fetches charge the reservation a per-row estimate; the
		// sequential scan charges exact bytes per chunk as it materializes.
		if err := ex.rt.growRows(len(rel.rows), rel.width); err != nil {
			return nil, fmt.Errorf("executor: scan %s output: %w", n.Table, err)
		}
	} else {
		rel.rows, examined, err = ex.seqScan(snap, n.Preds)
		if err != nil {
			return nil, err
		}
		ex.rt.charge(w.SeqRow * examined)
	}
	ex.rt.charge(w.RowOut * float64(len(rel.rows)))

	if len(n.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: n.Slot, Table: n.Table, Alias: n.Alias,
			BaseRows: base, Examined: examined, Matched: float64(len(rel.rows)),
			Trace: n.Tr,
		})
	}
	return rel, nil
}

// indexPositions converts a sargable predicate into an index range scan,
// returning the matching positions and the snapshot they are row numbers of.
func indexPositions(ix *index.Index, p qgm.Predicate) ([]int, *storage.Snapshot, error) {
	lo, hi := index.Unbounded(), index.Unbounded()
	switch p.Op {
	case qgm.OpEQ:
		if p.Value.IsNull() {
			return nil, nil, nil // NULL equals nothing
		}
		lo = index.Bound{Value: p.Value, Inclusive: true}
		hi = lo
	case qgm.OpLT:
		hi = index.Bound{Value: p.Value}
	case qgm.OpLE:
		hi = index.Bound{Value: p.Value, Inclusive: true}
	case qgm.OpGT:
		lo = index.Bound{Value: p.Value}
	case qgm.OpGE:
		lo = index.Bound{Value: p.Value, Inclusive: true}
	case qgm.OpBetween:
		lo = index.Bound{Value: p.Lo, Inclusive: true}
		hi = index.Bound{Value: p.Hi, Inclusive: true}
	default:
		return nil, nil, fmt.Errorf("executor: predicate %s is not sargable", p)
	}
	positions, snap := ix.RangeAt(lo, hi)
	return positions, snap, nil
}

func mergedRelation(left, right *relation) *relation {
	rel := &relation{
		offsets: make(map[int]int, len(left.offsets)+len(right.offsets)),
		widths:  make(map[int]int, len(left.widths)+len(right.widths)),
		width:   left.width + right.width,
	}
	for slot, off := range left.offsets {
		rel.offsets[slot] = off
		rel.widths[slot] = left.widths[slot]
	}
	for slot, off := range right.offsets {
		rel.offsets[slot] = left.width + off
		rel.widths[slot] = right.widths[slot]
	}
	return rel
}

func concatRows(l, r []value.Datum) []value.Datum {
	out := make([]value.Datum, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func (ex *executor) runJoin(n *optimizer.Join) (*relation, error) {
	switch n.Method {
	case optimizer.HashJoin:
		return ex.runHashJoin(n)
	case optimizer.IndexNLJoin:
		return ex.runIndexNLJoin(n)
	case optimizer.MergeJoin:
		return ex.runMergeJoin(n)
	case optimizer.NestedLoopJoin:
		return ex.runNestedLoop(n)
	default:
		return nil, fmt.Errorf("executor: unknown join method %v", n.Method)
	}
}

func (ex *executor) runHashJoin(n *optimizer.Join) (*relation, error) {
	left, err := ex.run(n.Left)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Left, left); err != nil {
		return nil, err
	}
	right, err := ex.run(n.Right)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Right, right); err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	rel := mergedRelation(left, right)

	lCols := make([]int, len(n.Preds))
	rCols := make([]int, len(n.Preds))
	for i, jp := range n.Preds {
		lCols[i] = left.col(jp.LeftSlot, jp.LeftOrd)
		rCols[i] = right.col(jp.RightSlot, jp.RightOrd)
	}

	// The build table references left rows rather than copying them, so its
	// accounted cost is per-entry overhead — charged before building, which
	// is where an under-budgeted join must stop.
	if err := ex.rt.grow(hashEntryBytes * int64(len(left.rows))); err != nil {
		return nil, fmt.Errorf("executor: hash join build: %w", err)
	}

	rel.rows, err = ex.hashJoin(left, right, lCols, rCols)
	if err != nil {
		return nil, err
	}
	ex.rt.charge(w.HashBuild * float64(len(left.rows)))
	ex.rt.charge(w.HashProbe * float64(len(right.rows)))
	ex.rt.charge(w.RowOut * float64(len(rel.rows)))
	if err := ex.rt.growRows(len(rel.rows), rel.width); err != nil {
		return nil, fmt.Errorf("executor: hash join output: %w", err)
	}
	return rel, nil
}

func (ex *executor) runIndexNLJoin(n *optimizer.Join) (*relation, error) {
	inner, ok := n.Right.(*optimizer.Scan)
	if !ok {
		return nil, fmt.Errorf("executor: index NL join requires a scan inner, got %T", n.Right)
	}
	left, err := ex.run(n.Left)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Left, left); err != nil {
		return nil, err
	}
	tbl, err := ex.baseTable(inner.Table)
	if err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	width := tbl.Schema().NumColumns()
	rightRel := &relation{
		offsets: map[int]int{inner.Slot: 0},
		widths:  map[int]int{inner.Slot: width},
		width:   width,
	}
	rel := mergedRelation(left, rightRel)

	// The driving predicate is the first join predicate with an index on
	// the inner column; the rest are residual filters.
	var driving *qgm.JoinPredicate
	var ix *index.Index
	for i := range n.Preds {
		jp := n.Preds[i]
		if jp.RightSlot != inner.Slot {
			continue
		}
		if found, ok := ex.rt.Indexes.Find(inner.Table, jp.RightCol); ok {
			driving, ix = &jp, found
			break
		}
	}
	if driving == nil {
		return nil, fmt.Errorf("executor: no usable index for NL join into %s", inner.Table)
	}

	out, err := ex.indexNLProbe(left, inner, ix, driving, n.Preds)
	if err != nil {
		return nil, err
	}
	rel.rows = out.rows
	examined, matched := float64(out.examined), float64(out.matched)
	// Charged per left row, not as one product: float sums round
	// differently, and per-row charges are what the committed simulated
	// seconds were measured with.
	for range left.rows {
		ex.rt.charge(w.IndexProbe)
	}
	ex.rt.charge(w.IndexRow * examined)
	ex.rt.charge(w.RowOut * float64(len(rel.rows)))
	if err := ex.rt.growRows(len(rel.rows), rel.width); err != nil {
		return nil, fmt.Errorf("executor: index NL join output: %w", err)
	}

	if len(inner.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: inner.Slot, Table: inner.Table, Alias: inner.Alias,
			BaseRows: float64(tbl.RowCount()), Examined: examined, Matched: matched,
			Conditioned: true,
			Trace:       inner.Tr,
		})
	}
	return rel, nil
}

// compareKeys orders two rows by their join-key columns; NULLs sort first
// (they are filtered out before merging).
func compareKeys(a []value.Datum, aCols []int, b []value.Datum, bCols []int) int {
	for i := range aCols {
		if c := a[aCols[i]].Compare(b[bCols[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func hasNullKey(row []value.Datum, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

func (ex *executor) runMergeJoin(n *optimizer.Join) (*relation, error) {
	left, err := ex.run(n.Left)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Left, left); err != nil {
		return nil, err
	}
	right, err := ex.run(n.Right)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Right, right); err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	rel := mergedRelation(left, right)

	lCols := make([]int, len(n.Preds))
	rCols := make([]int, len(n.Preds))
	for i, jp := range n.Preds {
		lCols[i] = left.col(jp.LeftSlot, jp.LeftOrd)
		rCols[i] = right.col(jp.RightSlot, jp.RightOrd)
	}

	// Drop NULL-key rows (they join nothing), then sort both sides.
	lRows := make([][]value.Datum, 0, len(left.rows))
	for _, r := range left.rows {
		if !hasNullKey(r, lCols) {
			lRows = append(lRows, r)
		}
	}
	rRows := make([][]value.Datum, 0, len(right.rows))
	for _, r := range right.rows {
		if !hasNullKey(r, rCols) {
			rRows = append(rRows, r)
		}
	}
	// The sorted side copies are row references; charge their headers before
	// sorting (and keep them charged — the merge reads both sides fully).
	if err := ex.rt.grow(rowHeaderBytes * int64(len(lRows)+len(rRows))); err != nil {
		return nil, fmt.Errorf("executor: merge join sort: %w", err)
	}
	sortCharge := func(n int) {
		if n > 1 {
			ex.rt.charge(w.SortRow * float64(n) * math.Log2(float64(n)))
		}
	}
	sortCharge(len(lRows))
	sortCharge(len(rRows))
	sort.SliceStable(lRows, func(i, j int) bool { return compareKeys(lRows[i], lCols, lRows[j], lCols) < 0 })
	sort.SliceStable(rRows, func(i, j int) bool { return compareKeys(rRows[i], rCols, rRows[j], rCols) < 0 })

	// Merge: advance groups of equal keys and emit the cross product of
	// each matching group pair.
	li, ri := 0, 0
	for li < len(lRows) && ri < len(rRows) {
		c := compareKeys(lRows[li], lCols, rRows[ri], rCols)
		switch {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			lEnd := li + 1
			for lEnd < len(lRows) && compareKeys(lRows[lEnd], lCols, lRows[li], lCols) == 0 {
				lEnd++
			}
			rEnd := ri + 1
			for rEnd < len(rRows) && compareKeys(rRows[rEnd], rCols, rRows[ri], rCols) == 0 {
				rEnd++
			}
			for i := li; i < lEnd; i++ {
				for j := ri; j < rEnd; j++ {
					rel.rows = append(rel.rows, concatRows(lRows[i], rRows[j]))
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	ex.rt.charge(w.SeqRow * float64(len(lRows)+len(rRows)))
	ex.rt.charge(w.RowOut * float64(len(rel.rows)))
	if err := ex.rt.growRows(len(rel.rows), rel.width); err != nil {
		return nil, fmt.Errorf("executor: merge join output: %w", err)
	}
	return rel, nil
}

func (ex *executor) runNestedLoop(n *optimizer.Join) (*relation, error) {
	left, err := ex.run(n.Left)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Left, left); err != nil {
		return nil, err
	}
	right, err := ex.run(n.Right)
	if err != nil {
		return nil, err
	}
	if err := ex.checkpoint(n.Right, right); err != nil {
		return nil, err
	}
	w := ex.rt.Weights
	rel := mergedRelation(left, right)
	for _, lrow := range left.rows {
		for _, rrow := range right.rows {
			ok := true
			for _, jp := range n.Preds {
				if !lrow[left.col(jp.LeftSlot, jp.LeftOrd)].Equal(rrow[right.col(jp.RightSlot, jp.RightOrd)]) {
					ok = false
					break
				}
			}
			if ok {
				rel.rows = append(rel.rows, concatRows(lrow, rrow))
			}
		}
	}
	ex.rt.charge(w.HashProbe * float64(len(left.rows)) * float64(len(right.rows)))
	ex.rt.charge(w.RowOut * float64(len(rel.rows)))
	if err := ex.rt.growRows(len(rel.rows), rel.width); err != nil {
		return nil, fmt.Errorf("executor: nested loop output: %w", err)
	}
	return rel, nil
}

// --- finishing: aggregation, distinct, order, limit, projection ----------

// blockAggregates reports whether the block needs grouped aggregation (the
// condition finish routes through aggregate, and Execute fuses into scans).
func blockAggregates(blk *qgm.Block) bool {
	for _, p := range blk.Projections {
		if p.Agg != sqlparser.AggNone {
			return true
		}
	}
	return len(blk.GroupBy) > 0
}

func (ex *executor) finish(rel *relation) (*Result, error) {
	var res *Result
	var err error
	if blockAggregates(ex.blk) {
		res, err = ex.aggregate(rel)
	} else {
		res, err = ex.project(rel)
	}
	if err != nil {
		return nil, err
	}
	return ex.finishFrom(res)
}

// finishFrom applies the post-aggregation finishing operators — DISTINCT,
// ORDER BY, LIMIT — shared by the regular pipeline and the fused agg-scan.
func (ex *executor) finishFrom(res *Result) (*Result, error) {
	blk := ex.blk
	if blk.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	if len(blk.OrderBy) > 0 {
		if err := ex.orderResult(res); err != nil {
			return nil, err
		}
	}
	if blk.Limit >= 0 && len(res.Rows) > blk.Limit {
		res.Rows = res.Rows[:blk.Limit]
	}
	return res, nil
}

// project emits the non-aggregated projection; sort keys that reference
// base columns are appended as hidden columns and stripped after ordering.
func (ex *executor) project(rel *relation) (*Result, error) {
	blk := ex.blk
	type colRef struct{ slot, ord int }
	var cols []colRef
	var names []string

	for _, p := range blk.Projections {
		if p.Star {
			for slot, ti := range blk.Tables {
				for o := 0; o < ti.Schema.NumColumns(); o++ {
					cols = append(cols, colRef{slot, o})
					names = append(names, ti.Alias+"."+ti.Schema.Column(o).Name)
				}
			}
			continue
		}
		cols = append(cols, colRef{p.Slot, p.Ordinal})
		names = append(names, p.Alias)
	}
	// Hidden sort keys for ORDER BY on base columns not using aliases.
	hidden := 0
	for _, ok := range blk.OrderBy {
		if ok.ByAlias == "" {
			cols = append(cols, colRef{ok.Slot, ok.Ordinal})
			names = append(names, fmt.Sprintf("__sort%d", hidden))
			hidden++
		}
	}

	out := make([][]value.Datum, len(rel.rows))
	for i, row := range rel.rows {
		pr := make([]value.Datum, len(cols))
		for j, c := range cols {
			pr[j] = row[rel.col(c.slot, c.ord)]
		}
		out[i] = pr
	}
	return &Result{Columns: names, Rows: out}, nil
}

type aggState struct {
	count    int64
	countCol int64
	sum      float64
	sumIsInt bool
	sumInt   int64
	min, max value.Datum
	seen     bool
}

// merge folds another partial state for the same group and projection into
// st; aggregation combines per-unit partials with it.
func (st *aggState) merge(other *aggState) {
	st.count += other.count
	st.countCol += other.countCol
	st.sum += other.sum
	st.sumInt += other.sumInt
	st.sumIsInt = st.sumIsInt && other.sumIsInt
	st.seen = st.seen || other.seen
	if !other.min.IsNull() && (st.min.IsNull() || other.min.Compare(st.min) < 0) {
		st.min = other.min
	}
	if !other.max.IsNull() && (st.max.IsNull() || other.max.Compare(st.max) > 0) {
		st.max = other.max
	}
}

type group struct {
	keys []value.Datum
	aggs []aggState
}

// groupAccumulator builds grouped aggregation state row by row. Each work
// unit runs one accumulator (a single one over the whole input at dop 1);
// units merge in unit order, which preserves the first-appearance group
// order. The fused agg-scan absorbs selected chunk rows directly
// (absorbChunk) without materializing the relation.
type groupAccumulator struct {
	blk    *qgm.Block
	rel    *relation
	groups map[string]*group
	order  []string // deterministic group order = first appearance
	keyBuf []byte   // reused group-key encoding scratch
}

func newGroupAccumulator(blk *qgm.Block, rel *relation) *groupAccumulator {
	return &groupAccumulator{blk: blk, rel: rel, groups: make(map[string]*group)}
}

func (ga *groupAccumulator) newGroup(keys []value.Datum) *group {
	g := &group{keys: keys, aggs: make([]aggState, len(ga.blk.Projections))}
	for i := range g.aggs {
		g.aggs[i].sumIsInt = true
		g.aggs[i].min, g.aggs[i].max = value.Null, value.Null
	}
	return g
}

func (ga *groupAccumulator) absorbRow(row []value.Datum) {
	ga.absorb(func(col int) value.Datum { return row[col] })
}

// absorbChunk folds the selected rows of one columnar chunk into the
// accumulator, reading datums straight off the column vectors — the fused
// agg-scan's row source, skipping row materialization entirely.
func (ga *groupAccumulator) absorbChunk(ch *storage.Chunk, sel []int) {
	for _, i := range sel {
		ga.absorb(func(col int) value.Datum { return ch.DatumAt(i, col) })
	}
}

// absorb is the single row-state transition both row sources share, so the
// fused and materialized paths cannot drift apart.
func (ga *groupAccumulator) absorb(get func(col int) value.Datum) {
	kb := ga.keyBuf[:0]
	keys := make([]value.Datum, len(ga.blk.GroupBy))
	for i, gk := range ga.blk.GroupBy {
		d := get(ga.rel.col(gk.Slot, gk.Ordinal))
		keys[i] = d
		kb = appendGroupKeyDatum(kb, d)
	}
	ga.keyBuf = kb
	g, ok := ga.groups[string(kb)]
	if !ok {
		key := string(kb)
		g = ga.newGroup(keys)
		ga.groups[key] = g
		ga.order = append(ga.order, key)
	}
	for i, p := range ga.blk.Projections {
		st := &g.aggs[i]
		st.count++
		if p.Agg == sqlparser.AggNone || p.Star {
			continue
		}
		d := get(ga.rel.col(p.Slot, p.Ordinal))
		if d.IsNull() {
			continue
		}
		st.countCol++
		st.seen = true
		if f, ok := d.AsFloat(); ok {
			st.sum += f
			if d.Kind() == value.KindInt {
				st.sumInt += d.Int()
			} else {
				st.sumIsInt = false
			}
		} else {
			st.sumIsInt = false
		}
		if st.min.IsNull() || d.Compare(st.min) < 0 {
			st.min = d
		}
		if st.max.IsNull() || d.Compare(st.max) > 0 {
			st.max = d
		}
	}
}

// mergeFrom folds a later partial accumulator into ga, keeping first-
// appearance order: groups ga already holds merge state-wise, new groups
// append in the partial's own order.
func (ga *groupAccumulator) mergeFrom(other *groupAccumulator) {
	for _, key := range other.order {
		og := other.groups[key]
		g, ok := ga.groups[key]
		if !ok {
			ga.groups[key] = og
			ga.order = append(ga.order, key)
			continue
		}
		for i := range g.aggs {
			g.aggs[i].merge(&og.aggs[i])
		}
	}
}

func (ex *executor) aggregate(rel *relation) (*Result, error) {
	units, err := runUnits(ex.rt, len(rel.rows), func(lo, hi int) (unit, error) {
		ga := newGroupAccumulator(ex.blk, rel)
		for _, row := range rel.rows[lo:hi] {
			ga.absorbRow(row)
		}
		return unit{ga: ga}, nil
	})
	if err != nil {
		return nil, err
	}
	return ex.aggregateFinish(ex.mergeGroups(units, rel), len(rel.rows))
}

// aggregateFinish turns accumulated group state into the result rows,
// charging the same meter and reservation costs whether the state came from
// a materialized relation or the fused agg-scan (inputRows is the absorbed
// row count either way, so the charge formulas are identical).
func (ex *executor) aggregateFinish(ga *groupAccumulator, inputRows int) (*Result, error) {
	blk := ex.blk
	w := ex.rt.Weights

	nAgg := len(blk.Projections)
	groups, orderKeys := ga.groups, ga.order
	ex.rt.charge(w.HashBuild * float64(inputRows))
	// Aggregation state is charged after accumulation (operator-boundary
	// enforcement: growth past the budget is bounded to this operator's
	// grouped state, which is what the statement materializes from here on).
	if err := ex.rt.grow(int64(len(groups)) * (64 + 96*int64(len(blk.Projections)))); err != nil {
		return nil, fmt.Errorf("executor: aggregation state: %w", err)
	}

	// Global aggregate over empty input still yields one row.
	if len(groups) == 0 && len(blk.GroupBy) == 0 {
		g := &group{aggs: make([]aggState, nAgg)}
		for i := range g.aggs {
			g.aggs[i].min, g.aggs[i].max = value.Null, value.Null
		}
		groups[""] = g
		orderKeys = append(orderKeys, "")
	}

	names := make([]string, len(blk.Projections))
	for i, p := range blk.Projections {
		names[i] = p.Alias
	}

	var rows [][]value.Datum
	for _, key := range orderKeys {
		g := groups[key]
		out := make([]value.Datum, len(blk.Projections))
		for i, p := range blk.Projections {
			st := g.aggs[i]
			switch {
			case p.Agg == sqlparser.AggNone:
				// A grouped column: find its value among the group keys.
				found := false
				for gi, gk := range blk.GroupBy {
					if gk.Slot == p.Slot && gk.Ordinal == p.Ordinal {
						out[i] = g.keys[gi]
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("executor: projection %q is not grouped", p.Alias)
				}
			case p.Agg == sqlparser.AggCount:
				if p.Star {
					out[i] = value.NewInt(st.count)
				} else {
					out[i] = value.NewInt(st.countCol)
				}
			case p.Agg == sqlparser.AggSum:
				if st.countCol == 0 {
					out[i] = value.Null
				} else if st.sumIsInt {
					out[i] = value.NewInt(st.sumInt)
				} else {
					out[i] = value.NewFloat(st.sum)
				}
			case p.Agg == sqlparser.AggAvg:
				if st.countCol == 0 {
					out[i] = value.Null
				} else {
					out[i] = value.NewFloat(st.sum / float64(st.countCol))
				}
			case p.Agg == sqlparser.AggMin:
				out[i] = st.min
			case p.Agg == sqlparser.AggMax:
				out[i] = st.max
			}
		}
		rows = append(rows, out)
	}
	return &Result{Columns: names, Rows: rows}, nil
}

func distinctRows(rows [][]value.Datum) [][]value.Datum {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, d := range r {
			kb = appendGroupKeyDatum(kb, d)
		}
		if !seen[string(kb)] {
			seen[string(kb)] = true
			out = append(out, r)
		}
	}
	return out
}

// orderResult sorts the result rows. Alias keys bind to output columns;
// base-column keys bind to the hidden "__sortN" columns appended by project
// (aggregated results only support alias / grouped-column keys). Hidden
// columns are stripped afterwards.
func (ex *executor) orderResult(res *Result) error {
	blk := ex.blk
	type sortKey struct {
		col  int
		desc bool
	}
	keys := make([]sortKey, 0, len(blk.OrderBy))
	hidden := 0
	colIndex := func(name string) int {
		for i, c := range res.Columns {
			if c == name {
				return i
			}
		}
		return -1
	}
	for _, ok := range blk.OrderBy {
		if ok.ByAlias != "" {
			ci := colIndex(ok.ByAlias)
			if ci < 0 {
				return fmt.Errorf("executor: ORDER BY alias %q not found", ok.ByAlias)
			}
			keys = append(keys, sortKey{col: ci, desc: ok.Desc})
			continue
		}
		ci := colIndex(fmt.Sprintf("__sort%d", hidden))
		hidden++
		if ci < 0 {
			// Aggregated result: the base column must be a grouped,
			// projected column.
			found := false
			for pi, p := range blk.Projections {
				if p.Agg == sqlparser.AggNone && p.Slot == ok.Slot && p.Ordinal == ok.Ordinal {
					keys = append(keys, sortKey{col: pi, desc: ok.Desc})
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("executor: ORDER BY column is neither projected nor grouped")
			}
			continue
		}
		keys = append(keys, sortKey{col: ci, desc: ok.Desc})
	}

	n := len(res.Rows)
	if n > 1 {
		ex.rt.charge(ex.rt.Weights.SortRow * float64(n) * math.Log2(float64(n)))
		// Sort scratch (row headers) is transient: grown for the sort,
		// returned right after.
		scratch := rowHeaderBytes * int64(n)
		if err := ex.rt.grow(scratch); err != nil {
			return fmt.Errorf("executor: ORDER BY sort: %w", err)
		}
		defer ex.rt.shrink(scratch)
	}
	less := func(a, b []value.Datum) bool {
		for _, k := range keys {
			c := a[k.col].Compare(b[k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	if err := ex.stableSort(res.Rows, less); err != nil {
		return fmt.Errorf("executor: ORDER BY sort: %w", err)
	}

	// Strip hidden sort columns.
	visible := len(res.Columns)
	for visible > 0 && strings.HasPrefix(res.Columns[visible-1], "__sort") {
		visible--
	}
	if visible < len(res.Columns) {
		res.Columns = res.Columns[:visible]
		for i := range res.Rows {
			res.Rows[i] = res.Rows[i][:visible]
		}
	}
	return nil
}
