package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tracing"
)

// phaseSpan is one engine phase span delivered to the observer. With one
// embedded session every span of a statement, its parse span (qid 0)
// included, ends while that statement runs, so stmt attaches the span to
// the benchmark's statement span, and qid ties it to the engine's own id.
// Served sessions overlap and never see a qid, so their spans keep -1.
type phaseSpan struct {
	stmt  int64 // running statement of the single session; -1 when served
	qid   int64
	phase string
	end   time.Time
	wall  time.Duration
}

// stmtSpan is the benchmark's own span around one statement call.
type stmtSpan struct {
	session, index int
	start, end     time.Time
	query          bool
}

// spanLog is the traced run's tracing.SpanObserver. It keeps every span in
// memory; write dumps them once the run is over.
type spanLog struct {
	single bool // one embedded session: spans belong to the running statement
	cur    atomic.Int64

	mu     sync.Mutex
	phases []phaseSpan
	stmts  []stmtSpan
}

var _ tracing.SpanObserver = (*spanLog)(nil)

func newSpanLog(single bool) *spanLog {
	l := &spanLog{single: single}
	l.cur.Store(-1)
	return l
}

func (l *spanLog) Active() bool { return true }

func (l *spanLog) ObserveSpan(qid int64, phase string, wall time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.phases = append(l.phases, phaseSpan{stmt: l.cur.Load(), qid: qid, phase: phase, end: now, wall: wall})
	l.mu.Unlock()
}

// begin marks the single session's statement index as running. Nil-safe.
func (l *spanLog) begin(index int) {
	if l != nil && l.single {
		l.cur.Store(int64(index))
	}
}

// end records the span of statement index of session. Nil-safe.
func (l *spanLog) end(session, index int, o outcome) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stmts = append(l.stmts, stmtSpan{session: session, index: index, start: o.start, end: o.start.Add(o.lat), query: o.query})
	l.mu.Unlock()
	if l.single {
		l.cur.Store(-1)
	}
}

// attachParse adds each statement's parse span time to its outcome. Nil-safe.
func (l *spanLog) attachParse(outs [][]outcome) {
	if l == nil {
		return
	}
	for _, p := range l.phases {
		if p.phase == tracing.PhaseParse && p.stmt >= 0 {
			outs[0][p.stmt].parse += p.wall
		}
	}
}

// writeSpans dumps every episode's spans as tab-separated lines, times in
// microseconds from the episode's first statement:
//
//	stmt <episode> <session> <index> <start> <end> <select|dml>
//	span <episode> <statement index or -1> <qid> <phase> <start> <end>
func writeSpans(dir, name string, eps []*episode) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for e, ep := range eps {
		l := ep.spans
		var t0 time.Time
		if len(l.stmts) > 0 {
			t0 = l.stmts[0].start
		}
		us := func(t time.Time) int64 { return t.Sub(t0).Microseconds() }
		for _, s := range l.stmts {
			kind := "dml"
			if s.query {
				kind = "select"
			}
			fmt.Fprintf(bw, "stmt\t%d\t%d\t%d\t%d\t%d\t%s\n", e, s.session, s.index, us(s.start), us(s.end), kind)
		}
		for _, p := range l.phases {
			fmt.Fprintf(bw, "span\t%d\t%d\t%d\t%s\t%d\t%d\n", e, p.stmt, p.qid, p.phase, us(p.end.Add(-p.wall)), us(p.end))
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer turns the traced episodes into the per-layer metrics, summing
// over all of them. Times are per SELECT for the SELECT pipeline phases, per
// DML for storage and index maintenance, and per statement for parse, wire
// and engine overhead.
func perLayer(eps []*episode) map[string]float64 {
	phase := make(map[string]time.Duration)
	metric := make(map[string]float64)
	var stmts, sel, dml, affected, groupsEval, groupsMat, rebuilds int
	var clientWall, dmlStorage, rebuild, elapsed time.Duration
	var cacheHits, cacheMisses, evictions, gcCycles, gcPause float64
	var dmlLat []time.Duration
	for _, ep := range eps {
		for _, p := range ep.spans.phases {
			phase[p.phase] += p.wall
		}
		for _, name := range []string{"engine_statement_wall_seconds_sum", "jits_sample_rows_total",
			"qss_archive_hits_total", "qss_archive_misses_total"} {
			metric[name] += ep.win.metricsAfter[name] - ep.win.metricsBefore[name]
		}
		w := ep.win
		cacheHits += float64(w.cacheAfter.Hits - w.cacheBefore.Hits)
		cacheMisses += float64(w.cacheAfter.Misses - w.cacheBefore.Misses)
		evictions += float64(w.cacheAfter.Evictions - w.cacheBefore.Evictions)
		gcCycles += float64(w.memAt.NumGC - w.memBefore.NumGC)
		gcPause += float64(w.memAt.PauseTotalNs-w.memBefore.PauseTotalNs) / 1e6
		elapsed += w.elapsed
		rebuilds += ep.rebuilds
		dmlLat = append(dmlLat, latencies(ep.outs, false, false)...)
		for _, so := range ep.outs {
			for _, o := range so {
				if !o.timed {
					continue
				}
				stmts++
				clientWall += o.lat
				if o.query {
					sel++
					groupsEval += o.groupsEvaluated
					groupsMat += o.groupsMaterialized
					continue
				}
				dml++
				affected += o.affected
				rebuild += o.rebuild
				dmlStorage += o.lat - o.parse
			}
		}
	}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	count := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	engineWall := time.Duration(metric["engine_statement_wall_seconds_sum"] * float64(time.Second))
	var phases time.Duration
	for _, p := range []string{tracing.PhaseParse, tracing.PhasePrepare, tracing.PhaseOptimize,
		tracing.PhaseExecute, tracing.PhaseFeedback, tracing.PhaseArchiveMerge} {
		phases += phase[p]
	}
	return map[string]float64{
		"index.rebuild_ms":         per(rebuild, dml, time.Millisecond),
		"index.rebuilds":           float64(rebuilds),
		"storage.dml_ms":           per(dmlStorage, dml, time.Millisecond),
		"storage.dml_p50_ms":       percentileMS(dmlLat, 0.50),
		"storage.rows_affected":    count(float64(affected), dml),
		"core.sample_ms":           per(phase[tracing.PhaseSample], sel, time.Millisecond),
		"core.sample_rows":         count(metric["jits_sample_rows_total"], sel),
		"core.groups_evaluated":    count(float64(groupsEval), sel),
		"core.groups_materialized": count(float64(groupsMat), sel),
		"core.prepare_self_ms":     per(phase[tracing.PhasePrepare]-phase[tracing.PhaseSample], sel, time.Millisecond),
		"core.archive_hit_ratio":   ratio(metric["qss_archive_hits_total"], metric["qss_archive_misses_total"]),
		"executor.execute_self_ms": per(phase[tracing.PhaseExecute]-phase[tracing.PhaseReoptPlan], sel, time.Millisecond),
		"optimizer.optimize_ms":    per(phase[tracing.PhaseOptimize], sel, time.Millisecond),
		"plancache.hit_ratio":      ratio(cacheHits, cacheMisses),
		"plancache.evictions":      evictions,
		"sqlparser.parse_us":       per(phase[tracing.PhaseParse], stmts, time.Microsecond),
		"wire.roundtrip_us":        per(clientWall-engineWall, stmts, time.Microsecond),
		"engine.other_us":          per(engineWall-phases-dmlStorage, stmts, time.Microsecond),
		"feedback.feedback_ms":     per(phase[tracing.PhaseFeedback], sel, time.Millisecond),
		"runtime.gc_cycles":        gcCycles,
		"runtime.gc_pause_ms":      gcPause,
		"tracing.throughput_sps":   float64(stmts) / elapsed.Seconds(),
	}
}
