// Package engine is the public facade of the database: it wires the SQL
// front end, the Query Graph Model, the JITS framework, the cost-based
// optimizer, the executor and the feedback loop into a single Exec call —
// the equivalent of the paper's modified DB2 engine.
//
// Per SELECT statement the engine runs the paper's full pipeline:
//
//	parse → rewrite (QGM) → JITS Prepare (sensitivity analysis + sampling)
//	      → optimize (QSS-aware estimation, join enumeration)
//	      → execute (metered physical operators)
//	      → feedback (actual vs. estimated selectivities → StatHistory)
//
// Compilation work (optimization and JITS statistics collection) and
// execution work accrue on separate meters, so results report the same
// compilation / execution / total split as the paper's Table 3.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/executor"
	"repro/internal/feedback"
	"repro/internal/flightrec"
	"repro/internal/govern"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/tracing"
	"repro/internal/value"
)

// Config configures a new engine instance.
type Config struct {
	// JITS configures the just-in-time statistics framework; the zero
	// value disables it (traditional processing).
	JITS core.Config
	// Weights override the cost model; zero value selects defaults.
	Weights costmodel.Weights
	// MigrateEvery, when positive, runs the statistics-migration module
	// automatically after every N SELECT statements — the paper's
	// "information in the QSS archive can be used to periodically update
	// the system catalog".
	MigrateEvery int
	// ReactiveCorrections enables a LEO-style *reactive* baseline (the
	// related-work family of the paper's §5.1): after each query, observed
	// actual selectivities are stored as exact-match corrections that
	// benefit future queries with the same predicate groups. The current
	// query still suffers from the wrong estimate — the paper's critique.
	// Only consulted when JITS collection is disabled.
	ReactiveCorrections bool
	// Trace, when non-nil, receives one line per notable per-query decision:
	// JITS collection choices with their s1/s2 scores, the chosen plan's
	// root, estimated-vs-actual selectivities observed by the feedback loop,
	// and per-phase span timings. All writes are serialized through an
	// internal tracing.Tracer, so the writer may be shared by concurrent
	// statements without external locking.
	Trace io.Writer
	// Parallelism is the default degree of intra-query parallelism for
	// SELECT execution and JITS sample evaluation. Values <= 1 run the
	// serial operators, which reproduce the paper's cost accounting
	// exactly; higher values dispatch morsels to a worker pool without
	// changing results or metered work. Per-query override: ExecWith.
	Parallelism int
	// StatementTimeout bounds every statement's wall-clock time; 0 means
	// no deadline. Expiry cancels JITS sampling at the next table boundary
	// (the statement still compiles, degraded to catalog statistics) and
	// execution at the next morsel boundary (the statement errors with
	// context.DeadlineExceeded). Per-query override: ExecOptions.Timeout.
	StatementTimeout time.Duration
	// FlightRecorderCapacity enables the statement flight recorder with a
	// ring of that many records (SHOW QUERIES / EXPLAIN HISTORY read it).
	// 0 leaves recording off — the recorder still exists, so it can be
	// enabled later through Recorder(), but statements pay only one atomic
	// load. Negative values select flightrec.DefaultCapacity.
	FlightRecorderCapacity int
	// Governor configures the resource governor: admission control
	// (MaxConcurrent/QueueDepth), the engine-global memory pool, and the
	// JITS sampling circuit breaker. The zero value disables all three.
	// Its per-statement memory budget defaults to JITS.MemBudgetBytes, so
	// setting only the JITS knob budget-bounds both sampling buffers and
	// buffering executor operators.
	Governor govern.Config
	// PlanCacheSize enables the compiled-plan cache with at most that many
	// entries: repeated SELECTs (keyed on sqlparser.Normalize of their text
	// and the engine's archive epoch) skip parse, JITS preparation and
	// optimization entirely. 0 disables the cache; negative selects
	// plancache.DefaultSize. Any DML, DDL, statistics migration or archive
	// restore bumps the epoch and invalidates every cached plan, so a plan
	// compiled against pre-update statistics is never reused afterwards.
	PlanCacheSize int
	// StorageChunkSize overrides the rows-per-chunk capacity of the
	// columnar storage layer for tables created by this engine; 0 keeps
	// storage.DefaultChunkSize. Benchmarks sweep it.
	StorageChunkSize int
	// Reopt arms checkpointed mid-query re-optimization: at pipeline
	// breakers (join-input materializations) the executor compares observed
	// cardinality against the plan's estimate, and when the q-error exceeds
	// the threshold the engine re-plans the unexecuted remainder with the
	// materialized intermediates as exact-cardinality leaves. The zero value
	// disables it; SetReopt retunes a live engine.
	Reopt ReoptConfig
	// Accuracy configures the estimator-accuracy ledger (SHOW ACCURACY /
	// SHOW DRIFT, /debug/accuracy): per-statistic EWMA q-error, DML churn
	// and CUSUM drift detection over the feedback stream. The zero value
	// leaves the ledger disabled; statements then pay one atomic load per
	// probe. It can also be enabled later through Accuracy().
	Accuracy accuracy.Config
}

// ExecOptions tune one Exec call — the per-query session knobs.
type ExecOptions struct {
	// Parallelism overrides the engine's default degree of parallelism for
	// this statement; 0 keeps the engine default, 1 forces serial.
	Parallelism int
	// Timeout overrides Config.StatementTimeout for this statement; 0
	// keeps the engine default.
	Timeout time.Duration
	// Annotations are free-form labels attached to the statement's
	// flight-recorder record (the SQL service tags statements that arrived
	// through a retry or on a resumed session). Ignored while the recorder
	// is disabled.
	Annotations []string
}

// Metrics reports the simulated timing split of one statement.
type Metrics struct {
	CompileUnits   float64
	ExecUnits      float64
	CompileSeconds float64
	ExecSeconds    float64
	TotalSeconds   float64
}

// Result is the outcome of one Exec call.
type Result struct {
	Columns      []string
	Rows         [][]value.Datum
	RowsAffected int
	Plan         string // EXPLAIN rendering of the chosen join tree
	Metrics      Metrics
	Prepare      *core.PrepareReport // JITS decisions, nil when disabled
	// PlanCacheHit reports that this statement reused a compiled plan from
	// the plan cache, skipping parse/JITS-prepare/optimize entirely.
	PlanCacheHit bool
	// Reopts counts the mid-query re-optimizations this statement went
	// through; Plan renders the plan that actually completed.
	Reopts int
}

// Engine is the database instance.
type Engine struct {
	mu           sync.Mutex
	db           *storage.Database
	cat          *catalog.Catalog
	indexes      *index.Set
	history      *feedback.History
	jits         *core.JITS
	weights      costmodel.Weights
	clock        int64
	migrateEvery int
	selectCount  int64
	tracer       *tracing.Tracer
	recorder     *flightrec.Recorder
	accuracy     *accuracy.Ledger
	governor     *govern.Governor
	parallelism  int
	reoptCfg     ReoptConfig
	stmtTimeout  time.Duration
	closed       atomic.Bool
	// planCache is nil when Config.PlanCacheSize is 0 (cache disabled).
	planCache *plancache.Cache
	// archiveEpoch versions the statistics/data state cached plans were
	// compiled against; bumpArchiveEpoch documents what moves it.
	archiveEpoch atomic.Uint64

	// staticQSS holds the "workload statistics" baseline: column-group
	// statistics precollected from the workload text and never refreshed.
	// Consulted only when JITS collection is disabled.
	staticQSS *core.Archive
	// reactiveQSS holds the LEO-style corrections store when
	// ReactiveCorrections is enabled.
	reactiveQSS *core.Archive
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	w := cfg.Weights
	if w == (costmodel.Weights{}) {
		w = costmodel.DefaultWeights()
	}
	cat := catalog.New()
	hist := feedback.NewHistory()
	ixs := index.NewSet()
	if cfg.JITS.Parallelism == 0 {
		cfg.JITS.Parallelism = cfg.Parallelism
	}
	tracer := tracing.New(cfg.Trace)
	jits := core.New(cfg.JITS, hist, cat)
	jits.BindIndexes(ixs)
	jits.BindTracer(tracer)
	recorder := flightrec.New(cfg.FlightRecorderCapacity)
	// The recorder observes tracer spans for per-phase timings; the observer
	// is inert (one atomic load per span site) until the recorder is enabled.
	tracer.SetObserver(recorder)
	if cfg.FlightRecorderCapacity != 0 {
		recorder.Enable()
	}
	if cfg.Governor.StatementMemBudgetBytes == 0 {
		cfg.Governor.StatementMemBudgetBytes = cfg.JITS.MemBudgetBytes
	}
	governor := govern.New(cfg.Governor)
	jits.BindBreaker(governor.SamplingBreaker())
	// The accuracy ledger always exists (so it can be enabled later); while
	// disabled every probe on it is one atomic load. It subscribes to
	// archive merges through the JITS coordinator and shares the tracer.
	ledger := accuracy.New(cfg.Accuracy)
	ledger.BindTracer(tracer)
	jits.BindMergeObserver(ledger)
	e := &Engine{
		db:           storage.NewDatabase(),
		cat:          cat,
		indexes:      ixs,
		history:      hist,
		jits:         jits,
		weights:      w,
		migrateEvery: cfg.MigrateEvery,
		tracer:       tracer,
		recorder:     recorder,
		accuracy:     ledger,
		governor:     governor,
		parallelism:  cfg.Parallelism,
		reoptCfg:     cfg.Reopt,
		stmtTimeout:  cfg.StatementTimeout,
		planCache:    plancache.New(cfg.PlanCacheSize),
	}
	e.db.SetChunkSize(cfg.StorageChunkSize)
	if cfg.ReactiveCorrections {
		e.reactiveQSS = core.NewArchive(0, 0)
	}
	return e
}

// DB exposes the storage layer (the data generator loads tables directly).
func (e *Engine) DB() *storage.Database { return e.db }

// Catalog exposes the system catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Indexes exposes the index registry.
func (e *Engine) Indexes() *index.Set { return e.indexes }

// History exposes the feedback StatHistory.
func (e *Engine) History() *feedback.History { return e.history }

// JITS exposes the framework coordinator (experiments tune s_max on it).
func (e *Engine) JITS() *core.JITS { return e.jits }

// Weights returns the active cost-model weights.
func (e *Engine) Weights() costmodel.Weights { return e.weights }

// tick advances and returns the engine's logical clock. Every statement
// gets a fresh timestamp; histogram buckets and statistics carry these.
func (e *Engine) tick() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock++
	return e.clock
}

// Now returns the current logical time without advancing it.
func (e *Engine) Now() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock
}

// tracef writes one trace line when tracing is enabled. The tracer
// serializes concurrent writers; before it existed, concurrent statements
// interleaved partial lines (and raced) on the shared Config.Trace writer.
func (e *Engine) tracef(format string, args ...any) {
	e.tracer.Printf(format, args...)
}

// Tracer exposes the engine's phase tracer (tests and tools may emit their
// own lines through it; it is always non-nil).
func (e *Engine) Tracer() *tracing.Tracer { return e.tracer }

// Recorder exposes the statement flight recorder. Always non-nil; it records
// only while enabled (Config.FlightRecorderCapacity != 0, or an explicit
// Enable). Safe to read concurrently with statements and across Close.
func (e *Engine) Recorder() *flightrec.Recorder { return e.recorder }

// Accuracy exposes the estimator-accuracy ledger. Always non-nil; it
// records only while enabled (Config.Accuracy.Enabled, or an explicit
// Enable). Safe to read concurrently with statements.
func (e *Engine) Accuracy() *accuracy.Ledger { return e.accuracy }

// Closed reports whether Close has been called (the debug server's health
// endpoint reads this).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Governor exposes the resource governor (always non-nil; with the zero
// Config.Governor it is a no-op governor whose snapshot reports everything
// disabled). The debug server's health endpoint and tests read it.
func (e *Engine) Governor() *govern.Governor { return e.governor }

// PlanCache exposes the compiled-plan cache; nil when Config.PlanCacheSize
// is 0. Tests and the serve experiment read its Stats.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

// ArchiveEpoch returns the current statistics/data epoch. Cached plans are
// keyed on it; see bumpArchiveEpoch for what advances it.
func (e *Engine) ArchiveEpoch() uint64 { return e.archiveEpoch.Load() }

// bumpArchiveEpoch advances the epoch and eagerly sweeps now-stale plan
// cache entries. It is called after every statement or API that changes
// data or the statistics cached plans were costed against: DML (the archive
// merge counters and sensitivity analysis react to the same UDI activity),
// DDL, statistics migration, RUNSTATS, workload-stats collection, and
// archive restore.
func (e *Engine) bumpArchiveEpoch() {
	n := e.archiveEpoch.Add(1)
	e.planCache.Invalidate(n)
}

// TableSchema implements qgm.SchemaResolver.
func (e *Engine) TableSchema(name string) (*storage.Schema, bool) {
	tbl, ok := e.db.Table(name)
	if !ok {
		return nil, false
	}
	return tbl.Schema(), true
}

// ErrClosed is returned by Exec variants after Close.
var ErrClosed = errors.New("engine: closed")

// Close marks the engine closed: subsequent Exec calls fail with ErrClosed.
// In-flight statements finish normally (the engine has no background
// goroutines of its own — parallel worker pools live only for the duration
// of one operator call and always drain before it returns). Close is
// idempotent.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// Drain waits until every admitted statement has released its governor slot
// and the admission queue is empty — the engine's graceful-drain hook.
// Callers that want a true drain must stop feeding the engine first (the SQL
// service stops accepting and quiesces its sessions before calling this);
// Drain itself rejects nothing. It returns ctx.Err() if the context expires
// while statements are still in flight, and immediately when admission
// control is disabled (there are no slots to account for).
func (e *Engine) Drain(ctx context.Context) error {
	return e.governor.WaitIdle(ctx)
}

// Exec parses and runs one SQL statement at the engine's default degree of
// parallelism.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecWithContext(context.Background(), sql, ExecOptions{})
}

// ExecContext is Exec bounded by ctx: cancellation or deadline expiry stops
// JITS sampling at the next per-table boundary (compilation degrades to
// catalog statistics) and execution at the next morsel boundary (the
// statement returns the context's error).
func (e *Engine) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return e.ExecWithContext(ctx, sql, ExecOptions{})
}

// ExecWith parses and runs one SQL statement with per-query session options.
func (e *Engine) ExecWith(sql string, opts ExecOptions) (*Result, error) {
	return e.ExecWithContext(context.Background(), sql, opts)
}

// execMode selects what execSelect does after compilation.
type execMode uint8

const (
	// modeExecute runs the statement and returns its rows.
	modeExecute execMode = iota
	// modeExplain compiles only (including JITS collection) and returns the
	// plan text as rows.
	modeExplain
	// modeExplainAnalyze runs the full pipeline and returns the plan text
	// annotated with per-operator actuals as rows.
	modeExplainAnalyze
)

// ExecWithContext parses and runs one SQL statement with per-query session
// options under ctx. A statement timeout (ExecOptions.Timeout, falling back
// to Config.StatementTimeout) is layered onto ctx as a deadline.
func (e *Engine) ExecWithContext(ctx context.Context, sql string, opts ExecOptions) (*Result, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = e.stmtTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Admission control: the statement queues (FIFO) for an execution slot
	// before any work — parsing included — happens on its behalf. Shed
	// statements fail with govern.ErrOverloaded; a statement cancelled while
	// queued returns ctx.Err() and gives any concurrently granted slot back.
	ticket, err := e.governor.Admit(ctx)
	if err != nil {
		stmtErrors.Inc()
		return nil, err
	}
	defer ticket.Release()
	// Per-statement memory reservation: sampling buffers and buffering
	// executor operators charge it; Release returns any leak (an errored
	// statement's outstanding charges) to the global pool.
	mem := e.governor.NewReservation()
	defer mem.Release()
	dop := opts.Parallelism
	if dop == 0 {
		dop = e.parallelism
	}
	start := time.Now()
	// Plan-cache fast path: a hit executes the cached compiled plan without
	// parsing, JITS preparation or optimization. Only executable SELECTs are
	// ever stored, so SHOW/EXPLAIN/DML statements simply miss (their texts
	// normalize to keys no Put writes). The key's epoch pins the statistics
	// and data state the plan was compiled against.
	var cacheKey string
	var cacheEpoch uint64
	if e.planCache != nil {
		if key, nerr := sqlparser.Normalize(sql); nerr == nil {
			epoch := e.archiveEpoch.Load()
			if v, ok := e.planCache.Get(key, epoch); ok {
				ent := v.(*cachedPlan)
				ts := e.tick()
				var rec *flightrec.Record
				if e.recorder.Enabled() {
					rec = e.recorder.Begin(ts, sql)
					rec.Annotations = opts.Annotations
					rec.ArchiveEpoch = epoch
				}
				stmtSelect.Inc()
				res, err := e.execCachedSelect(ctx, key, ent, dop, ts, rec, mem)
				wall := time.Since(start)
				govern.ObserveStatementPeak(mem.Peak())
				if rec != nil {
					rec.Kind = "select"
					rec.Wall = wall
					rec.QueueWait = ticket.Wait()
					rec.MemPeakBytes = mem.Peak()
					if err != nil {
						rec.Err = err.Error()
					} else if res != nil {
						rec.Rows = len(res.Rows)
						rec.ExecSeconds = res.Metrics.ExecSeconds
					}
					e.recorder.Commit(rec)
				}
				if err != nil {
					stmtErrors.Inc()
					return nil, err
				}
				stmtWall.Observe(wall.Seconds())
				return res, nil
			}
			cacheKey, cacheEpoch = key, epoch
		}
	}
	// Parsing precedes statement-timestamp assignment, so its span carries
	// qid 0 ("pre-statement").
	parseSpan := e.tracer.Start(0, tracing.PhaseParse)
	stmt, err := sqlparser.Parse(sql)
	parseSpan.End()
	if err != nil {
		stmtErrors.Inc()
		return nil, err
	}
	// One logical-clock tick per parsed statement; the timestamp doubles as
	// the statement's qid in traces and the flight recorder. Parse errors do
	// not consume a tick.
	ts := e.tick()
	var rec *flightrec.Record
	if e.recorder.Enabled() {
		rec = e.recorder.Begin(ts, sql)
		rec.Annotations = opts.Annotations
		rec.ArchiveEpoch = e.archiveEpoch.Load()
	}
	var res *Result
	var kind string
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		kind = "select"
		stmtSelect.Inc()
		res, err = e.execSelect(ctx, s, sql, modeExecute, dop, ts, rec, mem, cacheKey, cacheEpoch)
	case *sqlparser.ExplainStmt:
		mode := modeExplain
		if s.Analyze {
			kind = "explain_analyze"
			mode = modeExplainAnalyze
			stmtExplainAnalyze.Inc()
		} else {
			kind = "explain"
			stmtExplain.Inc()
		}
		res, err = e.execSelect(ctx, s.Select, sql, mode, dop, ts, rec, mem, "", 0)
	case *sqlparser.ShowStmt:
		switch s.Kind {
		case sqlparser.ShowStats:
			kind = "show_stats"
			stmtShowStats.Inc()
			res, err = e.execShowStats(ts)
		case sqlparser.ShowQueries:
			kind = "show_queries"
			stmtShowQueries.Inc()
			res, err = e.execShowQueries(s.Last)
		case sqlparser.ShowMetrics:
			kind = "show_metrics"
			stmtShowMetrics.Inc()
			res, err = e.execShowMetrics()
		case sqlparser.ShowAccuracy:
			kind = "show_accuracy"
			stmtShowAccuracy.Inc()
			res, err = e.execShowAccuracy(ts, s.Table)
		case sqlparser.ShowDrift:
			kind = "show_drift"
			stmtShowDrift.Inc()
			res, err = e.execShowDrift(ts)
		default:
			err = fmt.Errorf("engine: unsupported SHOW %v", s.Kind)
		}
	case *sqlparser.ExplainHistoryStmt:
		kind = "explain_history"
		stmtExplainHistory.Inc()
		res, err = e.execExplainHistory(s.QID)
	case *sqlparser.InsertStmt:
		kind = "dml"
		stmtDML.Inc()
		res, err = e.execInsert(s)
	case *sqlparser.UpdateStmt:
		kind = "dml"
		stmtDML.Inc()
		res, err = e.execUpdate(s)
	case *sqlparser.DeleteStmt:
		kind = "dml"
		stmtDML.Inc()
		res, err = e.execDelete(s)
	case *sqlparser.CreateTableStmt:
		kind = "ddl"
		stmtDDL.Inc()
		res, err = e.execCreateTable(s)
	case *sqlparser.CreateIndexStmt:
		kind = "ddl"
		stmtDDL.Inc()
		res, err = e.execCreateIndex(s)
	default:
		e.recorder.Abort(rec)
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	// Data- or statistics-changing statements move the archive epoch, so no
	// later statement can reuse a plan compiled against the old state.
	if err == nil && (kind == "dml" || kind == "ddl") {
		e.bumpArchiveEpoch()
	}
	// DML churn ages the accuracy ledger's view of the table's statistics.
	if err == nil && kind == "dml" && res != nil && res.RowsAffected > 0 && e.accuracy.Enabled() {
		var table string
		switch s := stmt.(type) {
		case *sqlparser.InsertStmt:
			table = s.Table
		case *sqlparser.UpdateStmt:
			table = s.Table
		case *sqlparser.DeleteStmt:
			table = s.Table
		}
		e.accuracy.RecordChurn(ts, table, int64(res.RowsAffected))
	}
	wall := time.Since(start)
	govern.ObserveStatementPeak(mem.Peak())
	if rec != nil {
		rec.Kind = kind
		rec.Wall = wall
		rec.QueueWait = ticket.Wait()
		rec.MemPeakBytes = mem.Peak()
		if err != nil {
			rec.Err = err.Error()
		} else if res != nil {
			rec.Rows = len(res.Rows)
			rec.RowsAffected = res.RowsAffected
			rec.CompileSeconds = res.Metrics.CompileSeconds
			rec.ExecSeconds = res.Metrics.ExecSeconds
		}
		e.recorder.Commit(rec)
	}
	if err != nil {
		stmtErrors.Inc()
		return nil, err
	}
	stmtWall.Observe(wall.Seconds())
	return res, nil
}

// Degradation snapshots the JITS graceful-degradation counters: how many
// tables fell back to catalog statistics since the engine started, by cause.
func (e *Engine) Degradation() costmodel.DegradationCounts {
	return e.jits.DegradationCounts()
}

// staticSource adapts the precollected workload-statistics archive to the
// optimizer's StatsSource interface.
type staticSource struct {
	archive *core.Archive
	ts      int64
}

func (s *staticSource) GroupSelectivity(table string, preds []qgm.Predicate) (float64, string, bool) {
	return s.archive.GroupSelectivity(table, preds, s.ts)
}

func (s *staticSource) Cardinality(table string) (int64, bool) {
	return s.archive.Cardinality(table)
}

func (s *staticSource) ColumnNDV(table, column string) (int64, bool) {
	return s.archive.ColumnNDV(table, column)
}

// buildMetrics assembles one statement's Metrics from its compile and
// execution meters. Every statement path — SELECT, EXPLAIN, EXPLAIN ANALYZE,
// DML, degraded compilation, timeout — reports through this single helper,
// so the invariant TotalSeconds == CompileSeconds + ExecSeconds holds
// everywhere (with a nil meter contributing zero).
func buildMetrics(compile, exec *costmodel.Meter) Metrics {
	var m Metrics
	if compile != nil {
		m.CompileUnits = compile.Units()
		m.CompileSeconds = compile.Seconds()
	}
	if exec != nil {
		m.ExecUnits = exec.Units()
		m.ExecSeconds = exec.Seconds()
	}
	m.TotalSeconds = m.CompileSeconds + m.ExecSeconds
	return m
}

// planRows renders a plan text as one result row per line under a "plan"
// column — the EXPLAIN / EXPLAIN ANALYZE result shape.
func planRows(text string) [][]value.Datum {
	var rows [][]value.Datum
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, []value.Datum{value.NewString(line)})
	}
	return rows
}

// analyzeAnnotator builds the EXPLAIN ANALYZE annotation callback: executor
// actuals per plan node, plus a degradation flag on scans whose JITS
// collection fell back to catalog statistics.
func analyzeAnnotator(stats *executor.ExecStats, prep *core.PrepareReport) optimizer.AnnotateFunc {
	degraded := make(map[string]string)
	if prep != nil {
		for _, tr := range prep.Tables {
			if tr.Degraded {
				degraded[tr.Table] = tr.DegradeReason
			}
		}
	}
	return func(n optimizer.Node) (optimizer.Annotation, bool) {
		st, ok := stats.Lookup(n)
		if !ok {
			return optimizer.Annotation{}, false
		}
		a := optimizer.Annotation{ActualRows: st.Rows, Units: st.Units, Wall: st.Wall}
		if sc, isScan := n.(*optimizer.Scan); isScan {
			if reason, deg := degraded[sc.Table]; deg {
				a.Flags = "degraded: " + reason
			}
		}
		return a, true
	}
}

// newRuntime builds the executor environment of one execution: a subquery
// block, a statement's main block, or a plan-cache hit. All three go
// through here so they cannot drift apart.
func (e *Engine) newRuntime(ctx context.Context, meter *costmodel.Meter, dop int, stats *executor.ExecStats, mem *govern.Reservation, reopt *executor.ReoptState) *executor.Runtime {
	return &executor.Runtime{
		DB: e.db, Indexes: e.indexes, Weights: e.weights, Meter: meter,
		Ctx: ctx, Parallelism: dop, Stats: stats, Mem: mem, Reopt: reopt,
	}
}

// execSelect runs the SELECT pipeline in one of three modes. modeExplain
// compiles — including any JITS statistics collection, whose cost shows up
// in the metrics — but does not execute: the result carries the plan text as
// rows, one per line. modeExplainAnalyze runs the full pipeline (execution,
// feedback, reactive corrections, migration) and returns the plan text
// annotated with each operator's actual rows, metered units and wall time.
func (e *Engine) execSelect(ctx context.Context, stmt *sqlparser.SelectStmt, sql string, mode execMode, dop int, ts int64, rec *flightrec.Record, mem *govern.Reservation, cacheKey string, cacheEpoch uint64) (*Result, error) {
	var compileMeter, execMeter costmodel.Meter

	q, err := qgm.Build(stmt, e)
	if err != nil {
		return nil, err
	}
	q.SQL = sql
	blk := q.Blocks[0]

	// JITS compile-time statistics collection. Prepare degrades rather than
	// fails: on budget exhaustion, sampling faults or cancellation it
	// reports fallback tables and the optimizer below transparently uses
	// catalog statistics for them.
	prepSpan := e.tracer.Start(ts, tracing.PhasePrepare)
	qstats, prep, err := e.jits.PrepareBudgeted(ctx, q, e.db, ts, &compileMeter, e.weights, mem)
	if prep != nil {
		prepSpan.Attr("tables", len(prep.Tables)).Attr("units", fmt.Sprintf("%.0f", compileMeter.Units()))
	}
	prepSpan.End()
	if err != nil {
		return nil, err
	}
	if rec != nil && prep != nil {
		rec.Degraded = prep.Degraded
		for _, tr := range prep.Tables {
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
	if e.tracer.Enabled() && prep != nil {
		for _, tr := range prep.Tables {
			e.tracef("q%d jits %s collected=%v s1=%.3f s2=%.3f sample=%d groups=%d materialized=%d",
				ts, tr.Table, tr.Collected, tr.Scores.S1, tr.Scores.S2,
				tr.SampleRows, tr.GroupsEvaluated, tr.GroupsMaterialized)
			if tr.Degraded {
				e.tracef("q%d jits %s degraded: %s (catalog fallback)", ts, tr.Table, tr.DegradeReason)
			}
		}
	}
	var source optimizer.StatsSource
	switch {
	case qstats != nil:
		source = qstats
	case e.staticQSS != nil:
		source = &staticSource{archive: e.staticQSS, ts: ts}
	case e.reactiveQSS != nil:
		source = &staticSource{archive: e.reactiveQSS, ts: ts}
	}

	octx := &optimizer.Context{
		Est:     &optimizer.Estimator{Cat: e.cat, QSS: source},
		Indexes: e.indexes,
		Weights: e.weights,
		Meter:   &compileMeter,
	}

	// EXPLAIN ANALYZE — and any executing statement the flight recorder is
	// capturing — collects per-plan-node actuals from the executor; stats
	// stays nil otherwise, keeping the normal path free of the per-operator
	// meter and clock reads.
	var stats *executor.ExecStats
	if mode == modeExplainAnalyze || (rec != nil && mode != modeExplain) {
		stats = executor.NewExecStats()
	}

	// Execute IN-subquery blocks first and lower each semi-join into an IN
	// predicate on the outer block, so the outer optimization sees the
	// materialized match set. Plan text is rendered after execution so the
	// annotated (ANALYZE) and plain renderings share one code path.
	optSpan := e.tracer.Start(ts, tracing.PhaseOptimize)
	var subPlanNodes []optimizer.Node
	var subActuals []executor.ScanActual
	for _, sj := range blk.SemiJoins {
		inner := q.Blocks[sj.Block]
		innerPlan, err := optimizer.Optimize(inner, octx)
		if err != nil {
			optSpan.End()
			return nil, err
		}
		subPlanNodes = append(subPlanNodes, innerPlan)
		if mode == modeExplain {
			continue
		}
		innerRes, err := executor.Execute(inner, innerPlan, e.newRuntime(ctx, &execMeter, dop, stats, mem, nil))
		if err != nil {
			optSpan.End()
			return nil, err
		}
		subActuals = append(subActuals, innerRes.Actuals...)
		seen := make(map[value.Datum]bool, len(innerRes.Rows))
		values := make([]value.Datum, 0, len(innerRes.Rows))
		for _, row := range innerRes.Rows {
			d := row[0]
			if d.IsNull() || seen[d] {
				continue
			}
			seen[d] = true
			values = append(values, d)
		}
		blk.LocalPreds[sj.Slot] = append(blk.LocalPreds[sj.Slot], qgm.Predicate{
			Slot: sj.Slot, Column: sj.Column, Ordinal: sj.Ordinal,
			Op: qgm.OpIn, Values: values,
		})
	}

	plan, err := optimizer.Optimize(blk, octx)
	optSpan.Attr("units", fmt.Sprintf("%.0f", compileMeter.Units())).End()
	if err != nil {
		return nil, err
	}

	// renderPlan assembles the outer plan plus subquery sections, annotated
	// when ann is non-nil.
	renderPlan := func(ann optimizer.AnnotateFunc) string {
		text := optimizer.ExplainAnnotated(plan, dop, ann)
		for i, sp := range subPlanNodes {
			text += fmt.Sprintf("Subquery %d:\n%s", i+1, optimizer.ExplainAnnotated(sp, dop, ann))
		}
		return text
	}

	if mode == modeExplain {
		explain := renderPlan(nil)
		if rec != nil {
			rec.Plan = explain
			if qstats != nil {
				rec.ArchiveHits = qstats.ArchiveHits()
				rec.ArchiveMisses = qstats.ArchiveMisses()
			}
		}
		return &Result{
			Columns: []string{"plan"},
			Rows:    planRows(explain),
			Plan:    explain,
			Metrics: buildMetrics(&compileMeter, nil),
			Prepare: prep,
		}, nil
	}

	execSpan := e.tracer.Start(ts, tracing.PhaseExecute)
	reoptState := e.newReoptState(blk)
	rt := e.newRuntime(ctx, &execMeter, dop, stats, mem, reoptState)
	res, plan, reopts, err := e.executeWithReopt(blk, plan, rt, octx, reoptState, ts, rec, nil)
	if err != nil {
		execSpan.End()
		return nil, err
	}
	execSpan.Attr("rows", len(res.Rows)).Attr("units", fmt.Sprintf("%.0f", execMeter.Units())).End()
	if rec != nil {
		rec.Reopts = reopts
	}

	// Feedback, reactive corrections and migration cadence — shared with the
	// plan-cache hit path. Superseded attempts' scan feedback (captured at
	// their trigger points) merges with the final attempt's: the subtrees
	// that produced it never re-executed, so the union double-counts nothing.
	actuals := mergedActuals(reoptState, res.Actuals)
	e.postExecute(ts, blk, append(subActuals, actuals...), actuals, rec)
	e.tracef("q%d plan rows=%.1f cost=%.0f exec=%.4fs compile=%.4fs",
		ts, plan.Rows(), plan.Cost(), execMeter.Seconds(), compileMeter.Seconds())

	// Flight-recorder capture: the annotated plan (the same rendering
	// EXPLAIN ANALYZE produces, replayed later by EXPLAIN HISTORY) and the
	// per-operator estimate/actual pairs with their q-error.
	if rec != nil {
		rec.Plan = renderPlan(analyzeAnnotator(stats, prep))
		if qstats != nil {
			rec.ArchiveHits = qstats.ArchiveHits()
			rec.ArchiveMisses = qstats.ArchiveMisses()
		}
		for _, root := range append([]optimizer.Node{plan}, subPlanNodes...) {
			optimizer.Walk(root, func(n optimizer.Node) {
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
		}
		observeAggQError(blk, plan, stats)
	}

	if mode == modeExplainAnalyze {
		explain := renderPlan(analyzeAnnotator(stats, prep))
		return &Result{
			Columns: []string{"plan"},
			Rows:    planRows(explain),
			Plan:    explain,
			Metrics: buildMetrics(&compileMeter, &execMeter),
			Prepare: prep,
		}, nil
	}

	// Store the compiled plan for reuse at this epoch. Statements with
	// IN-subqueries are excluded: semi-join lowering folded the *executed*
	// inner result into the outer block's predicates above, so their plan
	// embeds data, not just shape, and must be recompiled per execution.
	// Re-optimized statements are excluded too: the completed plan embeds
	// Materialized leaves that resolve against this statement's checkpoint
	// state, and the superseded original plan was just proven wrong — caching
	// either would poison the cache.
	if cacheKey != "" && len(blk.SemiJoins) == 0 && reopts == 0 {
		e.planCache.Put(cacheKey, cacheEpoch, &cachedPlan{blk: blk, plan: plan, prep: prep})
	}

	return &Result{
		Columns: res.Columns,
		Rows:    res.Rows,
		Plan:    renderPlan(nil),
		Metrics: buildMetrics(&compileMeter, &execMeter),
		Prepare: prep,
		Reopts:  reopts,
	}, nil
}

// RunstatsAll collects general (basic + distribution) statistics on every
// table — the paper's "general statistics" baseline setting.
func (e *Engine) RunstatsAll() error {
	ts := e.tick()
	var m costmodel.Meter
	for _, name := range e.db.TableNames() {
		tbl, _ := e.db.Table(name)
		stats, err := catalog.Runstats(tbl, ts, catalog.RunstatsOptions{}, &m, e.weights)
		if err != nil {
			return err
		}
		e.cat.SetTableStats(stats)
	}
	e.bumpArchiveEpoch()
	return nil
}

// CollectWorkloadStats precollects exact column-group statistics for every
// predicate group occurring in the given workload — the paper's "workload
// statistics" baseline: "if the workload information is available, it can
// be analyzed and all the needed statistics can be collected beforehand".
// The statistics are computed from the *current* data by full scans and
// never refreshed, so subsequent updates silently stale them.
func (e *Engine) CollectWorkloadStats(sqls []string) error {
	ts := e.tick()
	archive := core.NewArchive(0, 0)
	var m costmodel.Meter // setup cost, not charged to any query
	for _, sql := range sqls {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue // workloads may contain DML; skip anything unparsable as SELECT
		}
		sel, ok := stmt.(*sqlparser.SelectStmt)
		if !ok {
			continue
		}
		q, err := qgm.Build(sel, e)
		if err != nil {
			continue
		}
		for _, tc := range core.AnalyzeQuery(q, 0) {
			tbl, ok := e.db.Table(tc.Table)
			if !ok {
				continue
			}
			card := tbl.RowCount()
			archive.SetCardinality(tc.Table, int64(card), ts)
			if card == 0 {
				continue
			}
			// Exact evaluation by full scan; snapshot rows are freshly
			// materialized, so they are retained without copying.
			rows := make([][]value.Datum, 0, card)
			tbl.Scan(func(_ int, row []value.Datum) bool {
				rows = append(rows, row)
				return true
			})
			m.Add(e.weights.SeqRow * float64(len(rows)))
			domains := core.SampleDomains(tbl.Schema(), rows)
			schema := tbl.Schema()
			for c := 0; c < schema.NumColumns(); c++ {
				distinct := make(map[value.Datum]bool, card)
				for _, row := range rows {
					if !row[c].IsNull() {
						distinct[row[c]] = true
					}
				}
				if len(distinct) > 0 {
					archive.SetColumnNDV(tc.Table, schema.Column(c).Name, int64(len(distinct)), ts)
				}
			}
			for _, g := range tc.Groups {
				count := 0
				for _, row := range rows {
					match := true
					for _, p := range g {
						if !p.Matches(row) {
							match = false
							break
						}
					}
					if match {
						count++
					}
				}
				archive.Materialize(tc.Table, g, float64(count)/float64(card), ts, domains)
			}
		}
	}
	e.staticQSS = archive
	e.bumpArchiveEpoch()
	return nil
}

// WorkloadStatsArchive exposes the static baseline archive (nil unless
// CollectWorkloadStats ran).
func (e *Engine) WorkloadStatsArchive() *core.Archive { return e.staticQSS }

// MigrateStats pushes archived 1-D QSS histograms into the catalog — the
// periodic statistics-migration step.
func (e *Engine) MigrateStats() int {
	n := e.jits.MigrateToCatalog(e.tick())
	if n > 0 {
		e.bumpArchiveEpoch()
	}
	return n
}

// SaveStatistics serializes the QSS archive so a later engine instance can
// restore it (the archive persists inside the catalog in the paper's DB2
// prototype).
func (e *Engine) SaveStatistics(w io.Writer) error {
	return e.jits.SaveArchive(w)
}

// LoadStatistics restores a QSS archive previously written by
// SaveStatistics, replacing the current one.
func (e *Engine) LoadStatistics(r io.Reader) error {
	a, err := core.LoadArchive(r)
	if err != nil {
		return err
	}
	e.jits.RestoreArchive(a)
	e.bumpArchiveEpoch()
	return nil
}
