package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

// tables are the generated car-insurance relations, in load order.
var tables = []string{"car", "owner", "demographics", "accidents"}

// benchWorkload is one traffic mix. Every mix is a closed loop: each session
// sends its next statement only after the previous reply arrived.
type benchWorkload struct {
	name  string
	scale float64
	// sessions > 0 serves the engine over TCP to that many client
	// sessions; 0 drives the engine in-process from one session.
	sessions int
	smax     float64
	// runstats collects catalog statistics during set-up (Table 3 case 2-b).
	runstats bool
	// planCache is engine.Config.PlanCacheSize: 0 off, negative the default.
	planCache int
	// episodes is how many times a run sets the workload up and drives it,
	// each for its share of the timed window.
	episodes int
	// warmup statements per session run before the timed window.
	warmup int
	// rate sizes the first stream allocation, in statements per second and
	// session: about twice the measured throughput, so that a faster engine
	// still does not regenerate its stream inside the timed window.
	rate int
	// gen returns the first n statements of a session's stream. Streams are
	// prefix-stable: gen(2n) begins with gen(n).
	gen func(d *workload.Dataset, seed int64, session, n int) []workload.Statement
}

// analyticPool is the number of distinct analytic texts in served_mix. They
// fit in the default 256-entry plan cache.
const analyticPool = 40

// rollup marks the generator's single-table analytic template: a GROUP BY
// rollup over car that scans the table and returns a handful of rows.
const rollup = "SELECT make, COUNT(*)"

// minPool is the smallest generated pool a stream is stratified from; it
// holds every statement class many times over.
const minPool = 1200

var workloads = []*benchWorkload{
	{
		name: "mixed_dml", scale: 0.01, smax: 0.5, episodes: 5, warmup: 18, rate: 200,
		gen: mixedStream,
	},
	{
		name: "collect_always", scale: 0.01, smax: 0, runstats: true, episodes: 5, warmup: 16, rate: 120,
		gen: queryStream,
	},
	{
		name: "scan_large", scale: 0.05, smax: 0.5, episodes: 3, warmup: 4, rate: 64,
		gen: queryStream,
	},
	{
		name: "served_mix", scale: 0.01, smax: 0.5, sessions: 2, planCache: -1, episodes: 5, warmup: 250, rate: 6000,
		gen: servedStream,
	},
}

// strata deals generated statements out in blocks that hold one unit of
// every class, in a seeded random order within the block. A unit is one
// statement, or one DML batch; its class is the template of its first
// statement. The seed still
// picks every constant and the data; stratifying only fixes the mix, which
// would otherwise move the metrics more from seed to seed than any change
// worth measuring.
type strata struct {
	keys  []string
	queue map[string][][]workload.Statement
	rng   *rand.Rand
	block []string
}

func newStrata(units [][]workload.Statement, seed int64) *strata {
	s := &strata{queue: make(map[string][][]workload.Statement), rng: rand.New(rand.NewSource(seed))}
	for _, u := range units {
		k := template(u[0].SQL)
		if _, ok := s.queue[k]; !ok {
			s.keys = append(s.keys, k)
		}
		s.queue[k] = append(s.queue[k], u)
	}
	sort.Strings(s.keys)
	return s
}

// next returns the next unit, or false once a class has run dry.
func (s *strata) next() ([]workload.Statement, bool) {
	if len(s.block) == 0 {
		s.block = append([]string(nil), s.keys...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	k := s.block[0]
	s.block = s.block[1:]
	q := s.queue[k]
	if len(q) == 0 {
		return nil, false
	}
	s.queue[k] = q[1:]
	return q[0], true
}

// template names the generator template a statement came from: its first
// three words, which differ between every pair of templates.
func template(sql string) string {
	f := strings.Fields(sql)
	return strings.Join(f[:min(3, len(f))], " ")
}

// singles makes every statement its own unit.
func singles(stmts []workload.Statement) [][]workload.Statement {
	out := make([][]workload.Statement, len(stmts))
	for i := range stmts {
		out[i] = stmts[i : i+1]
	}
	return out
}

// queryStream is the read-only stream: stratified Queries(_, seed+1).
func queryStream(d *workload.Dataset, seed int64, _, n int) []workload.Statement {
	s := newStrata(singles(d.Queries(max(2*n, minPool), seed+1)), seed+3)
	var out []workload.Statement
	for len(out) < n {
		u, ok := s.next()
		if !ok {
			break
		}
		out = append(out, u...)
	}
	return out
}

// mixedStream is the paper's §4.2 stream, Workload(_, seed+1, true), with
// its queries and its DML batches each stratified. As in the original, one
// batch follows every eighth query.
func mixedStream(d *workload.Dataset, seed int64, _, n int) []workload.Statement {
	var queries, batches [][]workload.Statement
	gen := d.Workload(max(2*n, minPool), seed+1, true)
	for i := 0; i < len(gen); {
		if gen[i].IsQuery {
			queries = append(queries, gen[i:i+1])
			i++
			continue
		}
		j := i
		for j < len(gen) && !gen[j].IsQuery {
			j++
		}
		batches = append(batches, gen[i:j])
		i = j
	}
	qs, bs := newStrata(queries, seed+3), newStrata(batches, seed+4)
	var out []workload.Statement
	for q := 0; len(out) < n; q++ {
		u, ok := qs.next()
		if !ok {
			break
		}
		out = append(out, u...)
		if q%8 == 7 {
			if u, ok = bs.next(); !ok {
				break
			}
			out = append(out, u...)
		}
	}
	return out
}

// servedStream interleaves distinct point lookups with a fixed pool of
// analytic texts: positions 4, 9, 14, ... take the pool's texts in seeded
// random order, each once per pass; the rest are stratified OLTP lookups.
// The pool holds the first distinct single-table rollups the seed generates.
// The join templates would cost tens of point lookups each and make the
// executor, not the per-statement path this workload is for, the bulk of
// the time. Each session gets its own lookups and order; the pool is shared.
func servedStream(d *workload.Dataset, seed int64, session, n int) []workload.Statement {
	var pool []workload.Statement
	seen := make(map[string]bool)
	for _, st := range d.Queries(minPool, seed+2) {
		if strings.HasPrefix(st.SQL, rollup) && !seen[st.SQL] && len(pool) < analyticPool {
			seen[st.SQL] = true
			pool = append(pool, st)
		}
	}
	sseed := seed + 100*int64(session+1)
	oltp := newStrata(singles(d.OLTPQueries(max(2*n, minPool), sseed)), sseed+1)
	pick := rand.New(rand.NewSource(sseed + 2))
	var order []int
	var out []workload.Statement
	for i := 0; len(out) < n; i++ {
		if i%5 != 4 {
			u, ok := oltp.next()
			if !ok {
				break
			}
			out = append(out, u...)
			continue
		}
		if len(order) == 0 {
			order = pick.Perm(len(pool))
		}
		out = append(out, pool[order[0]])
		order = order[1:]
	}
	return out
}

func findWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// engineConfig is the measured engine: JITS on at the workload's s_max and
// the default sample size of 2000 rows, serial execution.
func (w *benchWorkload) engineConfig() engine.Config {
	j := core.DefaultConfig()
	j.SMax = w.smax
	return engine.Config{JITS: j, Parallelism: 1, PlanCacheSize: w.planCache}
}

// referenceConfig is the oracle engine: JITS off, plan cache off, serial.
func referenceConfig() engine.Config { return engine.Config{Parallelism: 1} }

// env is one set-up engine, plus its server and client sessions when the
// workload is served.
type env struct {
	eng   *engine.Engine
	data  *workload.Dataset
	srv   *server.Server
	conns []*client.Conn
}

// setup loads the dataset, builds every index eagerly, collects catalog
// statistics when the workload asks, and starts the server and its
// sessions. This is what setup_s times.
func (w *benchWorkload) setup(cfg engine.Config, scale float64, seed int64, sessions int) (*env, error) {
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	ev := &env{eng: e, data: d}
	buildIndexes(e)
	if w.runstats {
		if err := e.RunstatsAll(); err != nil {
			return nil, fmt.Errorf("runstats: %w", err)
		}
	}
	if sessions == 0 {
		return ev, nil
	}
	ev.srv = server.New(e)
	addr, err := ev.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < sessions; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			ev.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		ev.conns = append(ev.conns, c)
	}
	return ev, nil
}

// close ends the sessions, stops the server and closes the engine; it
// returns once every server goroutine has exited.
func (ev *env) close() {
	for _, c := range ev.conns {
		_ = c.Close() // the run is over; a failed goodbye changes nothing
	}
	if ev.srv != nil {
		_ = ev.srv.Close() // Close always returns nil
	}
	_ = ev.eng.Close() // Close always returns nil
}

// buildIndexes forces every index to build now, so no lazy first-use build
// lands in the timed window.
func buildIndexes(e *engine.Engine) {
	for _, t := range tables {
		rebuildTableIndexes(e, t)
	}
}

// rebuildTableIndexes brings one table's indexes up to date through the
// public Index.Len, which rebuilds a stale index.
func rebuildTableIndexes(e *engine.Engine, table string) {
	for _, col := range e.Indexes().ForTable(table) {
		if ix, ok := e.Indexes().Find(table, col); ok {
			ix.Len()
		}
	}
}

// indexRebuilds sums Index.Rebuilds over every index of the engine.
func indexRebuilds(e *engine.Engine) int {
	n := 0
	for _, t := range tables {
		for _, col := range e.Indexes().ForTable(t) {
			if ix, ok := e.Indexes().Find(t, col); ok {
				n += ix.Rebuilds()
			}
		}
	}
	return n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
