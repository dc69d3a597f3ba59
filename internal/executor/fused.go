// Fused scan→aggregate. When a block is a single-table grouped aggregation
// (no join, no index access path), the executor skips materializing the
// filtered relation entirely: each chunk's selection vector feeds the group
// accumulator straight from the column arrays. The meter charges are
// formula-identical to the unfused scan-then-aggregate pipeline —
// SeqRow·examined + RowOut·matched at the scan, HashBuild·matched plus the
// group-state reservation at the aggregate — so EXPLAIN ANALYZE actuals,
// metered totals and the serial-vs-parallel differential all stay
// byte-identical to the pre-fusion engine; only the intermediate row
// buffer (and its wall-clock and memory cost) disappears.
package executor

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// runFusedAggScan executes a single-table aggregation block by absorbing
// matching chunk rows directly into group state. It records the same
// NodeStats the unfused scan node would (rows = matched, units = the
// scan-attributed charges) and the same ScanActual feedback.
func (ex *executor) runFusedAggScan(n *optimizer.Scan) (*Result, error) {
	if err := ex.rt.ctxErr(); err != nil {
		return nil, err
	}
	tbl, err := ex.baseTable(n.Table)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Hit(faultinject.StorageScan); err != nil {
		return nil, fmt.Errorf("executor: scanning %s: %w", n.Table, err)
	}
	w := ex.rt.Weights
	var before float64
	var start time.Time
	if ex.rt.Stats != nil {
		if ex.rt.Meter != nil {
			before = ex.rt.Meter.Units()
		}
		start = time.Now()
	}

	snap := tbl.Snapshot()
	width := snap.Schema().NumColumns()
	// A pseudo-relation carries the slot→offset mapping the accumulator
	// resolves columns through; it never holds rows.
	rel := &relation{
		offsets: map[int]int{n.Slot: 0},
		widths:  map[int]int{n.Slot: width},
		width:   width,
	}
	units, err := ex.scanUnits(snap, compileFilter(n.Preds, snap.Schema()), func(u *unit, ch *storage.Chunk, sel []int) error {
		if u.ga == nil {
			u.ga = newGroupAccumulator(ex.blk, rel)
		}
		u.ga.absorbChunk(ch, sel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ga := ex.mergeGroups(units, rel)
	counts := gather(units)
	examined, matched := counts.examined, counts.matched

	ex.rt.charge(w.SeqRow * float64(examined))
	ex.rt.charge(w.RowOut * float64(matched))
	if st := ex.rt.Stats; st != nil {
		after := before
		if ex.rt.Meter != nil {
			after = ex.rt.Meter.Units()
		}
		st.nodes[n] = NodeStats{
			Rows:  float64(matched),
			Units: after - before,
			Wall:  time.Since(start),
		}
	}
	if len(n.Preds) > 0 {
		ex.actuals = append(ex.actuals, ScanActual{
			Slot: n.Slot, Table: n.Table, Alias: n.Alias,
			BaseRows: float64(snap.NumRows()), Examined: float64(examined), Matched: float64(matched),
			Trace: n.Tr,
		})
	}
	return ex.aggregateFinish(ga, int(matched))
}
