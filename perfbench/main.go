// Command perfbench is the repository's wall-clock benchmark. It drives the
// engine through its public entry points (workload.Load, Engine.ExecWithContext,
// server.New/Start, client.Dial/Query) with inputs generated from --seed,
// measures several episodes that share the --seconds window, scales the
// wall times by probes of the machine's speed (calib.go), checks every
// statement against a reference engine, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 912, "failed": 0, "metrics": {"throughput_sps": {"value": 88.1, "unit": "1/s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. Run it from the repository root
// through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mixed_dml --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type metricSpec struct{ name, unit string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"throughput_sps", "1/s"},
	{"select_p50_tmpl_ms", "ms"},
	{"alloc_mb_per_stmt", "MB"},
	{"allocs_per_stmt", "count"},
	{"heap_live_mb", "MB"},
	{"sim_s_per_query", "s"},
}

// infoMetrics are reported beside the end-to-end metrics but not gated:
// from seed to seed they spread too far for a bound (README.md).
var infoMetrics = []metricSpec{
	{"select_p50_ms", "ms"},
	{"select_p90_ms", "ms"},
	{"select_p95_ms", "ms"},
	{"cpu_ms_per_stmt", "ms"},
}

// perLayerMetrics are reported by every traced run.
var perLayerMetrics = []metricSpec{
	{"index.rebuild_ms", "ms"},
	{"index.rebuilds", "count"},
	{"storage.dml_ms", "ms"},
	{"storage.dml_p50_ms", "ms"},
	{"storage.rows_affected", "rows"},
	{"core.sample_ms", "ms"},
	{"core.sample_rows", "rows"},
	{"core.groups_evaluated", "count"},
	{"core.groups_materialized", "count"},
	{"core.prepare_self_ms", "ms"},
	{"core.archive_hit_ratio", "ratio"},
	{"executor.execute_self_ms", "ms"},
	{"optimizer.optimize_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions", "count"},
	{"sqlparser.parse_us", "us"},
	{"wire.roundtrip_us", "us"},
	{"engine.other_us", "us"},
	{"feedback.feedback_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tracing.throughput_sps", "1/s"},
	{"oracle.error_rate", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mixed_dml, collect_always, scan_large or served_mix")
	seed := flag.Int64("seed", 1, "seed for the data and the statement streams")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's span dump")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}

	fmt.Printf("workload %s seed %d scale %g sessions %d s_max %g\n", w.name, *seed, w.scale, max(w.sessions, 1), w.smax)
	specs, values := endToEndMetrics, rep.e2e
	if rep.layers != nil {
		specs, values = perLayerMetrics, rep.layers
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		fmt.Printf("metric %-26s %14.6f %s\n", m.name, values[m.name], m.unit)
	}
	if rep.layers == nil {
		for _, m := range infoMetrics {
			fmt.Printf("info   %-26s %14.6f %s\n", m.name, rep.e2e[m.name], m.unit)
		}
		for _, name := range calibratedMetrics {
			fmt.Printf("wall   %-26s %14.6f (as measured, slowdown %.4f)\n", name, rep.raw[name], rep.slowdown)
		}
	}
	fmt.Printf("check  error_rate %.6f (%d of %d statements failed or differ from the reference)\n", rep.errorRate(), rep.failed, rep.attempted)
	fmt.Printf("check  oracle_s %.3f (replay on the reference engine, untimed)\n", rep.oracleS)
	fmt.Printf("memory rss_peak_mb %.1f (process peak, set-up included)\n", rep.rssMB)
	fmt.Printf("count  statements=%d sim_s=%.6f index_rebuilds=%d sample_rows=%d plancache_hits=%d dml_p50_ms=%.6f\n",
		rep.counts.Statements, rep.counts.SimSeconds, rep.counts.IndexRebuilds, rep.counts.SampleRows,
		rep.counts.PlanCacheHits, rep.dmlP50ms)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
