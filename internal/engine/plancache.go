package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/executor"
	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/govern"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/tracing"
)

// This file is the engine side of the compiled-plan cache (see
// internal/plancache for the container): what a cache entry holds, the
// cached execution fast path that skips parse/JITS-prepare/optimize, and
// the post-execution bookkeeping (feedback, reactive corrections, migration
// cadence) shared between the cold and cached paths.

// cachedPlan is one plan-cache entry: everything execution needs from
// compilation. All three fields are immutable after the compiling statement
// finishes — the executor never mutates the block or the plan tree, and the
// prepare report is read-only — so concurrent sessions may execute the same
// entry simultaneously.
type cachedPlan struct {
	blk  *qgm.Block
	plan optimizer.Node
	prep *core.PrepareReport // JITS decisions of the compiling statement
}

// execCachedSelect executes a cached compiled plan: the execution,
// feedback, and flight-recorder tail of execSelect without any of its
// compilation. The returned Result normally reports zero compile cost —
// that is the amortization the cache buys — and carries the compiling
// statement's PrepareReport so degradation flags are stable across reuse.
//
// A cached plan can still be *wrong* — compiled against estimates the data
// has since outgrown within one epoch, or simply misestimated from the
// start — so re-optimization checkpoints arm here exactly as on the cold
// path. The re-planning estimator is catalog-only (no JITS sampling ran for
// this execution), which is fine: the materialized intermediates carry
// exact cardinalities, and they are what re-planning pivots on. The first
// trigger also evicts the cache entry under key: the plan just proved
// itself stale, and the next execution must recompile rather than re-walk
// the same trap.
func (e *Engine) execCachedSelect(ctx context.Context, key string, ent *cachedPlan, dop int, ts int64, rec *flightrec.Record, mem *govern.Reservation) (*Result, error) {
	var compileMeter, execMeter costmodel.Meter
	var stats *executor.ExecStats
	if rec != nil {
		stats = executor.NewExecStats()
	}
	execSpan := e.tracer.Start(ts, tracing.PhaseExecute)
	reoptState := e.newReoptState(ent.blk)
	rt := e.newRuntime(ctx, &execMeter, dop, stats, mem, reoptState)
	octx := &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: e.cat},
		Indexes: e.indexes,
		Weights: e.weights,
		Meter:   &compileMeter,
	}
	res, plan, reopts, err := e.executeWithReopt(ent.blk, ent.plan, rt, octx, reoptState, ts, rec, func() {
		e.planCache.Remove(key)
	})
	if err != nil {
		execSpan.End()
		return nil, err
	}
	execSpan.Attr("rows", len(res.Rows)).Attr("units", fmt.Sprintf("%.0f", execMeter.Units())).Attr("plan_cache", "hit").End()
	if rec != nil {
		rec.Reopts = reopts
	}

	actuals := mergedActuals(reoptState, res.Actuals)
	e.postExecute(ts, ent.blk, actuals, actuals, rec)
	e.tracef("q%d plan rows=%.1f cost=%.0f exec=%.4fs plan_cache=hit",
		ts, plan.Rows(), plan.Cost(), execMeter.Seconds())

	if rec != nil {
		rec.PlanCacheHit = true
		rec.Plan = optimizer.ExplainAnnotated(plan, dop, analyzeAnnotator(stats, ent.prep))
		if ent.prep != nil {
			rec.Degraded = ent.prep.Degraded
			for _, tr := range ent.prep.Tables {
				rec.Tables = append(rec.Tables, flightrec.TableSample{
					Table:      tr.Table,
					Collected:  tr.Collected,
					SampleRows: tr.SampleRows,
					Degraded:   tr.Degraded,
					Reason:     tr.DegradeReason,
				})
				if tr.Degraded {
					rec.DegradeCauses = append(rec.DegradeCauses, tr.Table+": "+tr.DegradeReason)
				}
			}
		}
		optimizer.Walk(plan, func(n optimizer.Node) {
			op := flightrec.OperatorStats{EstRows: n.Rows()}
			switch t := n.(type) {
			case *optimizer.Scan:
				op.Op = t.Describe()
			case *optimizer.Join:
				op.Op = t.Describe()
			case *optimizer.Materialized:
				op.Op = t.Describe()
			}
			if st, ok := stats.Lookup(n); ok {
				op.ActRows = st.Rows
				op.QError = flightrec.QError(op.EstRows, op.ActRows)
				if op.QError > rec.WorstQError {
					rec.WorstQError = op.QError
				}
				switch n.(type) {
				case *optimizer.Scan:
					qerrorScan.Observe(op.QError)
				case *optimizer.Join:
					qerrorJoin.Observe(op.QError)
				}
			}
			rec.Operators = append(rec.Operators, op)
		})
		observeAggQError(ent.blk, plan, stats)
	}

	return &Result{
		Columns:      res.Columns,
		Rows:         res.Rows,
		Plan:         optimizer.ExplainAnnotated(plan, dop, nil),
		Metrics:      buildMetrics(&compileMeter, &execMeter),
		Prepare:      ent.prep,
		PlanCacheHit: true,
		Reopts:       reopts,
	}, nil
}

// postExecute runs the per-execution bookkeeping every executed SELECT owes
// regardless of how its plan was obtained: the LEO-style feedback loop over
// the actuals (allActuals includes subquery scans; mainActuals only the
// outer block's), reactive corrections when that baseline is enabled, and
// the periodic statistics-migration cadence.
func (e *Engine) postExecute(ts int64, blk *qgm.Block, allActuals, mainActuals []executor.ScanActual, rec *flightrec.Record) {
	fbSpan := e.tracer.Start(ts, tracing.PhaseFeedback)
	ledger := e.accuracy.Enabled()
	var obs []core.Observation
	for _, a := range allActuals {
		if a.Trace == nil || a.Conditioned {
			continue
		}
		obs = append(obs, core.Observation{
			Table:     a.Trace.Table,
			ColGrp:    a.Trace.ColGrp,
			StatList:  a.Trace.StatList,
			EstSel:    a.Trace.EstSel,
			ActualSel: a.ActualSelectivity(),
			BaseCard:  int64(a.BaseRows),
		})
		if rec != nil || ledger {
			ef := feedback.ErrorFactor(a.Trace.EstSel, a.ActualSelectivity(), int64(a.BaseRows))
			if rec != nil {
				rec.ErrorFactors = append(rec.ErrorFactors, ef)
			}
			if ledger {
				// The accuracy ledger watches the same feedback stream; a
				// statistic crossing into drifted annotates the statement
				// that tripped the detector.
				if tr, ok := e.accuracy.ObserveFeedback(ts, a.Trace.Table, a.Trace.ColGrp, ef, int64(a.BaseRows)); ok && rec != nil {
					rec.Annotations = append(rec.Annotations,
						fmt.Sprintf("accuracy: %s %s -> %s", tr.Key, tr.From, tr.To))
				}
			}
		}
		e.tracef("q%d feedback %s est=%.5f actual=%.5f stats=%v",
			ts, a.Trace.ColGrp, a.Trace.EstSel, a.ActualSelectivity(), a.Trace.StatList)
	}
	e.jits.Feedback(obs)
	fbSpan.Attr("observations", len(obs)).End()

	// Reactive corrections (LEO baseline): record the *observed*
	// selectivity of each local predicate group for future queries. Without
	// sample domains these land in the exact-match memo — precisely LEO's
	// granularity of adjustment.
	if e.reactiveQSS != nil {
		for slot, preds := range blk.LocalPreds {
			if len(preds) == 0 {
				continue
			}
			for _, a := range mainActuals {
				if a.Slot == slot && !a.Conditioned {
					e.reactiveQSS.Materialize(blk.Tables[slot].Table, preds, a.ActualSelectivity(), ts, nil)
					e.reactiveQSS.SetCardinality(blk.Tables[slot].Table, int64(a.BaseRows), ts)
				}
			}
		}
	}

	// Periodic statistics migration into the catalog.
	if e.migrateEvery > 0 {
		e.mu.Lock()
		e.selectCount++
		due := e.selectCount%int64(e.migrateEvery) == 0
		e.mu.Unlock()
		if due {
			mergeSpan := e.tracer.Start(ts, tracing.PhaseArchiveMerge)
			n := e.jits.MigrateToCatalog(ts)
			mergeSpan.Attr("migrated", n).End()
			if n > 0 {
				// Migrated histograms change the catalog statistics future
				// compilations cost against; cached plans are now stale.
				e.bumpArchiveEpoch()
			}
		}
	}
}
