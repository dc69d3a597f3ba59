package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/plancache"
	"repro/internal/value"
	"repro/internal/workload"
)

// options configure one benchmark run.
type options struct {
	seed int64
	// seconds is the length of the timed window, shared by the episodes.
	seconds float64
	// maxStatements, when positive, ends each session's episode window after
	// that many statements even if time remains; the count tests use it to
	// make two runs execute the same statements.
	maxStatements int
	// trace selects the per-layer run: spans, metrics registry, and eager
	// index rebuilds after each DML.
	trace bool
	// scale overrides the workload's scale factor when positive.
	scale float64
	// episodes, when positive, overrides how many times the workload is set
	// up and run.
	episodes int
	// traceDir, when set, receives the traced run's spans.
	traceDir string
}

// outcome is one executed statement as the client saw it.
type outcome struct {
	sql      string
	query    bool
	timed    bool
	start    time.Time
	lat      time.Duration
	cols     []string
	rows     [][]value.Datum
	affected int
	// fp digests cols, rows and affected once the window is over; rows is
	// dropped then.
	fp  [sha256.Size]byte
	sim float64 // simulated compile + exec seconds
	err error
	// slow is the machine's slowdown while the statement ran, from the
	// probes around its window slice.
	slow float64

	// JITS collection, summed over the statement's tables (embedded only:
	// the wire result does not carry the prepare report).
	sampleRows, groupsEvaluated, groupsMaterialized int
	// rebuild is the eager post-DML index rebuild time and parse the time of
	// the statement's parse span (traced single-session runs only).
	rebuild, parse time.Duration
}

// counts are the deterministic work counts of a run. Two runs of a
// single-session workload that execute the same statements agree on them.
type counts struct {
	Statements    int
	SimSeconds    float64
	IndexRebuilds int
	SampleRows    int
	PlanCacheHits uint64
}

// report is everything one run measured.
type report struct {
	// raw holds the end-to-end metrics as measured, e2e the same with
	// every time scaled by the machine's slowdown when it was measured.
	raw, e2e map[string]float64
	// slowdown is the timed windows' wall time as measured over their
	// scaled wall time.
	slowdown  float64
	layers    map[string]float64
	counts    counts
	dmlP50ms  float64
	rssMB     float64
	attempted int
	failed    int
	failures  []string
	// oracleS is the wall time of the result check, after the windows.
	oracleS float64
}

func (r *report) errorRate() float64 { return float64(r.failed) / float64(r.attempted) }

// window is what the timed window measured around the sessions. elapsed
// and cpu are as measured; scaledElapsed divides each slice's share of
// elapsed by the slowdown the probes around the slice saw. CPU time is not
// scaled: it does not count time the machine gave to other tenants.
type window struct {
	elapsed, scaledElapsed time.Duration
	cpu                    time.Duration
	memBefore, memAt       runtime.MemStats
	cacheBefore            plancache.Stats
	cacheAfter             plancache.Stats
	metricsBefore          map[string]float64
	metricsAfter           map[string]float64
}

// episode is one set-up engine driven through warm-up and a timed window.
type episode struct {
	outs       [][]outcome
	win        *window
	spans      *spanLog
	heapLiveMB float64
	rebuilds   int
}

// stream hands out one session's statements, regenerating a longer prefix
// when it runs out.
type stream struct {
	w       *benchWorkload
	d       *workload.Dataset
	seed    int64
	session int
	stmts   []workload.Statement
	next    int
}

func newStream(w *benchWorkload, d *workload.Dataset, seed int64, session, n int) *stream {
	return &stream{w: w, d: d, seed: seed, session: session, stmts: w.gen(d, seed, session, n)}
}

func (s *stream) pop() workload.Statement {
	if s.next == len(s.stmts) {
		s.stmts = s.w.gen(s.d, s.seed, s.session, 2*len(s.stmts))
	}
	st := s.stmts[s.next]
	s.next++
	return st
}

// run sets the workload up once per episode and runs each set-up engine
// for its share of the timed window. Episode e loads its data and draws its
// stream from seed --seed+1000e. setup_s and heap_live_mb are medians over
// the episodes; the other end-to-end metrics pool the episodes' statements,
// so one run averages over several datasets and streams. Every statement is
// then checked against the reference engine.
func run(w *benchWorkload, opts options) (*report, error) {
	scale := w.scale
	if opts.scale > 0 {
		scale = opts.scale
	}
	n := w.episodes
	if opts.episodes > 0 {
		n = opts.episodes
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	defer cal.close()
	var eps []*episode
	var setups, scaledSetups []float64
	var seeds []int64
	for e := 0; e < n; e++ {
		// The episode's stream and its data come from the same seed.
		seed := opts.seed + 1000*int64(e)
		runtime.GC()
		before := cal.probes(probeSpan / 2)
		start := time.Now()
		ev, err := w.setup(w.engineConfig(), scale, seed, w.sessions)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start).Seconds()
		setups = append(setups, took)
		scaledSetups = append(scaledSetups, took/((before+cal.probes(probeSpan/2))/2))
		seeds = append(seeds, seed)
		eps = append(eps, ev.episode(w, opts, seed, opts.seconds/float64(n), cal))
	}

	rep := &report{raw: endToEnd(eps, false), e2e: endToEnd(eps, true), rssMB: peakRSSMB()}
	rep.raw["setup_s"] = median(setups)
	rep.e2e["setup_s"] = median(scaledSetups)
	var elapsed, scaled time.Duration
	for _, ep := range eps {
		elapsed += ep.win.elapsed
		scaled += ep.win.scaledElapsed
	}
	rep.slowdown = float64(elapsed) / float64(scaled)

	var dml []time.Duration
	var outs [][][]outcome
	for _, ep := range eps {
		rep.counts.IndexRebuilds += ep.rebuilds
		rep.counts.PlanCacheHits += ep.win.cacheAfter.Hits
		for _, so := range ep.outs {
			for _, o := range so {
				rep.counts.Statements++
				rep.counts.SimSeconds += o.sim
				rep.counts.SampleRows += o.sampleRows
			}
		}
		dml = append(dml, latencies(ep.outs, false, false)...)
		outs = append(outs, ep.outs)
	}
	rep.dmlP50ms = percentileMS(dml, 0.50)
	if opts.trace {
		rep.layers = perLayer(eps)
		if opts.traceDir != "" {
			if err := writeSpans(opts.traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, opts.seed), eps); err != nil {
				return nil, err
			}
		}
	}

	oracleStart := time.Now()
	rep.failures, err = verify(scale, seeds, outs)
	if err != nil {
		return nil, err
	}
	rep.oracleS = time.Since(oracleStart).Seconds()
	for _, ep := range eps {
		for _, so := range ep.outs {
			rep.attempted += len(so)
		}
	}
	rep.failed = len(rep.failures)
	if opts.trace {
		rep.layers["oracle.error_rate"] = rep.errorRate()
	}
	return rep, nil
}

// episode drives a freshly set-up environment through warm-up and a timed
// window of the given length, then closes it.
func (ev *env) episode(w *benchWorkload, opts options, streamSeed int64, seconds float64, cal *calibrator) *episode {
	sessions := max(w.sessions, 1)
	n := w.warmup + int(float64(w.rate)*seconds)
	if opts.maxStatements > 0 {
		n = w.warmup + opts.maxStatements
	}
	streams := make([]*stream, sessions)
	for i := range streams {
		streams[i] = newStream(w, ev.data, streamSeed, i, n)
	}
	rebuildsAtSetup := indexRebuilds(ev.eng)

	ep := &episode{outs: make([][]outcome, sessions)}
	for i := range ep.outs {
		for k := 0; k < w.warmup; k++ {
			ep.outs[i] = append(ep.outs[i], ev.exec(i, streams[i].pop(), false, nil))
		}
	}
	if opts.trace {
		ep.spans = newSpanLog(w.sessions == 0)
	}
	ep.win = ev.timed(ep.outs, streams, seconds, opts.maxStatements, ep.spans, cal)
	ep.rebuilds = indexRebuilds(ev.eng) - rebuildsAtSetup
	for _, so := range ep.outs {
		for i := range so {
			so[i].digest()
		}
	}
	ep.spans.attachParse(ep.outs)
	// heap_live_mb is what the engine (and its server) keeps reachable: the
	// live heap with the engine minus the live heap without it. The client's
	// own records, which grow with the statement count, cancel out.
	withEngine := liveHeapMB()
	ev.close()
	ep.heapLiveMB = withEngine - liveHeapMB()
	runtime.KeepAlive(streams)
	return ep
}

// exec runs one statement on session i and records what came back.
func (ev *env) exec(i int, st workload.Statement, timed bool, spans *spanLog) outcome {
	o := outcome{sql: st.SQL, query: st.IsQuery, timed: timed, start: time.Now()}
	if ev.srv != nil {
		res, err := ev.conns[i].Query(st.SQL)
		o.lat = time.Since(o.start)
		o.err = err
		if res != nil {
			o.cols, o.rows, o.affected = res.Columns, res.Rows, res.RowsAffected
			o.sim = res.CompileSeconds + res.ExecSeconds
		}
		return o
	}
	res, err := ev.eng.ExecWithContext(context.Background(), st.SQL, engine.ExecOptions{})
	o.lat = time.Since(o.start)
	o.err = err
	if res == nil {
		return o
	}
	o.cols, o.rows, o.affected = res.Columns, res.Rows, res.RowsAffected
	o.sim = res.Metrics.CompileSeconds + res.Metrics.ExecSeconds
	if res.Prepare != nil {
		for _, t := range res.Prepare.Tables {
			o.sampleRows += t.SampleRows
			o.groupsEvaluated += t.GroupsEvaluated
			o.groupsMaterialized += t.GroupsMaterialized
		}
	}
	// The traced run times index maintenance directly: it rebuilds the
	// touched table's indexes right after the DML, outside the statement.
	if spans != nil && !st.IsQuery && err == nil {
		start := time.Now()
		rebuildTableIndexes(ev.eng, dmlTable(st.SQL))
		o.rebuild = time.Since(start)
	}
	return o
}

// digest replaces the statement's rows with the digest of its fingerprint.
func (o *outcome) digest() {
	o.fp = sha256.Sum256([]byte(fingerprint(o.cols, o.rows, o.affected, limitWithoutOrder(o.sql))))
	o.rows = nil
}

// dmlTable returns the table an INSERT INTO / UPDATE / DELETE FROM writes.
func dmlTable(sql string) string {
	f := strings.Fields(sql)
	if len(f) > 1 && strings.EqualFold(f[0], "UPDATE") {
		return f[1]
	}
	if len(f) > 2 {
		return f[2]
	}
	return ""
}

// sliceSeconds is the length of the slices a timed window is cut into; the
// calibrator probes the machine between them.
const sliceSeconds = 0.25

// probeSpan is how many probes, nearest in time, set a slice's slowdown:
// two seconds' worth.
const probeSpan = 8

// timed runs every session until the window closes, or for maxStatements
// statements each when that is positive, and measures the window. The
// window runs in slices with a probe before, between and after them; a
// session stops at the first statement boundary after its slice ends, and
// the next slice starts once every session has stopped.
func (ev *env) timed(outs [][]outcome, streams []*stream, seconds float64, maxStatements int, spans *spanLog, cal *calibrator) *window {
	win := &window{}
	runtime.GC()
	if spans != nil {
		metrics.Enable()
		win.metricsBefore = metricValues()
		ev.eng.Tracer().SetObserver(spans)
	}
	win.cacheBefore = ev.eng.PlanCache().Stats()
	runtime.ReadMemStats(&win.memBefore)
	n := 1
	if maxStatements <= 0 {
		n = max(int(math.Round(seconds/sliceSeconds)), 1)
	}
	length := time.Duration(seconds / float64(n) * float64(time.Second))
	probes := []float64{cal.probe()}
	elapsed := make([]time.Duration, n)
	// first[s][i] is the index of session i's first statement in slice s.
	first := make([][]int, n+1)
	for s := range n {
		for i := range outs {
			first[s] = append(first[s], len(outs[i]))
		}
		cpu0 := processCPU()
		start := time.Now()
		ev.slice(outs, streams, start.Add(length), maxStatements, spans)
		elapsed[s] = time.Since(start)
		win.cpu += processCPU() - cpu0
		probes = append(probes, cal.probe())
	}
	for i := range outs {
		first[n] = append(first[n], len(outs[i]))
	}
	// A single probe is noisy, so each slice takes the mean of the
	// probeSpan probes nearest to it.
	for s := range n {
		lo := min(max(s+1-probeSpan/2, 0), max(len(probes)-probeSpan, 0))
		near := probes[lo:min(lo+probeSpan, len(probes))]
		var f float64
		for _, p := range near {
			f += p
		}
		f /= float64(len(near))
		for i := range outs {
			for k := first[s][i]; k < first[s+1][i]; k++ {
				outs[i][k].slow = f
			}
		}
		win.elapsed += elapsed[s]
		win.scaledElapsed += time.Duration(float64(elapsed[s]) / f)
	}
	runtime.ReadMemStats(&win.memAt)
	win.cacheAfter = ev.eng.PlanCache().Stats()
	if spans != nil {
		ev.eng.Tracer().SetObserver(nil)
		win.metricsAfter = metricValues()
		metrics.Disable()
	}
	return win
}

// slice runs every session until the deadline, or for maxStatements
// statements each when that is positive.
func (ev *env) slice(outs [][]outcome, streams []*stream, deadline time.Time, maxStatements int, spans *spanLog) {
	session := func(i int) {
		for k := 0; maxStatements <= 0 || k < maxStatements; k++ {
			if maxStatements <= 0 && !time.Now().Before(deadline) {
				return
			}
			spans.begin(len(outs[i]))
			o := ev.exec(i, streams[i].pop(), true, spans)
			spans.end(i, len(outs[i]), o)
			outs[i] = append(outs[i], o)
		}
	}
	if len(outs) == 1 {
		session(0)
		return
	}
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			session(i)
		}(i)
	}
	wg.Wait()
}

// processCPU is the user + system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB is the heap still reachable after a full collection. Unlike
// peak RSS it carries no garbage-collector headroom, which varies from run
// to run.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metricValues snapshots the default metrics registry by name and label.
func metricValues() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range metrics.Samples() {
		out[s.Name+s.Label] += s.Value
	}
	return out
}

// latencies collects timed-window latencies of SELECTs (queries true) or
// DML statements (queries false), each divided by its slowdown when scaled.
func latencies(outs [][]outcome, queries, scaled bool) []time.Duration {
	var out []time.Duration
	for _, so := range outs {
		for _, o := range so {
			if o.timed && o.query == queries {
				out = append(out, o.latency(scaled))
			}
		}
	}
	return out
}

// latency is the statement's latency, divided by its slowdown when scaled.
func (o *outcome) latency(scaled bool) time.Duration {
	if scaled {
		return time.Duration(float64(o.lat) / o.slow)
	}
	return o.lat
}

// templatePercentileMS is the geometric mean, over the SELECT templates,
// of each template's nearest-rank latency percentile in milliseconds.
func templatePercentileMS(eps []*episode, p float64, scaled bool) float64 {
	by := make(map[string][]time.Duration)
	for _, ep := range eps {
		for _, so := range ep.outs {
			for _, o := range so {
				if o.timed && o.query {
					by[template(o.sql)] = append(by[template(o.sql)], o.latency(scaled))
				}
			}
		}
	}
	if len(by) == 0 {
		return 0
	}
	var logSum float64
	for _, lats := range by {
		logSum += math.Log(percentileMS(lats, p))
	}
	return math.Exp(logSum / float64(len(by)))
}

// percentileMS is the nearest-rank percentile in milliseconds; 0 for none.
func percentileMS(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := max(int(math.Ceil(p*float64(len(s))))-1, 0)
	return float64(s[k]) / float64(time.Millisecond)
}

// calibratedMetrics are the end-to-end and informational metrics that
// measure wall time; every other metric reads the same scaled or not.
var calibratedMetrics = []string{"setup_s", "throughput_sps", "select_p50_tmpl_ms", "select_p50_ms", "select_p90_ms", "select_p95_ms"}

// endToEnd computes the metrics a user of the engine sees, over the timed
// windows of all episodes; set-up time is added by the caller.
func endToEnd(eps []*episode, scaled bool) map[string]float64 {
	stmts, queries := 0, 0
	var sim float64
	var elapsed, cpu time.Duration
	var allocBytes, mallocs uint64
	var heap []float64
	var lats []time.Duration
	for _, ep := range eps {
		w := ep.win
		if scaled {
			elapsed += w.scaledElapsed
		} else {
			elapsed += w.elapsed
		}
		cpu += w.cpu
		allocBytes += w.memAt.TotalAlloc - w.memBefore.TotalAlloc
		mallocs += w.memAt.Mallocs - w.memBefore.Mallocs
		heap = append(heap, ep.heapLiveMB)
		lats = append(lats, latencies(ep.outs, true, scaled)...)
		for _, so := range ep.outs {
			for _, o := range so {
				if !o.timed {
					continue
				}
				stmts++
				if o.query {
					queries++
					sim += o.sim
				}
			}
		}
	}
	return map[string]float64{
		"throughput_sps":     float64(stmts) / elapsed.Seconds(),
		"select_p50_tmpl_ms": templatePercentileMS(eps, 0.50, scaled),
		"select_p50_ms":      percentileMS(lats, 0.50),
		"select_p90_ms":      percentileMS(lats, 0.90),
		"select_p95_ms":      percentileMS(lats, 0.95),
		"cpu_ms_per_stmt":    float64(cpu) / float64(time.Millisecond) / float64(stmts),
		"alloc_mb_per_stmt":  float64(allocBytes) / (1 << 20) / float64(stmts),
		"allocs_per_stmt":    float64(mallocs) / float64(stmts),
		"heap_live_mb":       median(heap),
		"sim_s_per_query":    sim / float64(queries),
	}
}
