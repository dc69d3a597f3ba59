package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tinyScale keeps the self-tests to seconds; every workload's shape (DML,
// sampling, scans, serving) still runs.
const tinyScale = 0.002

// tinyOptions runs two episodes of 40 timed statements per session.
func tinyOptions(trace bool) options {
	return options{seed: 3, seconds: 60, maxStatements: 40, trace: trace, scale: tinyScale, episodes: 2}
}

// TestWorkloadsTiny runs all four workloads, untraced and traced, and checks
// that every named metric, and no other, is reported and every statement
// matches the reference engine.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(w, tinyOptions(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			specs, values := slices.Concat(endToEndMetrics, infoMetrics), rep.e2e
			if trace {
				specs, values = perLayerMetrics, rep.layers
			}
			for _, m := range specs {
				if _, ok := values[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				}
			}
			if len(values) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(values), len(specs))
			}
			if rep.attempted == 0 || rep.errorRate() != 0 {
				t.Errorf("%s trace=%v: error_rate %v over %d statements: %v", w.name, trace, rep.errorRate(), rep.attempted, rep.failures)
			}
			if !trace {
				continue
			}
			// Index maintenance shows on the DML workload only; the
			// read-only workloads rebuild nothing after set-up.
			if dml := w.name == "mixed_dml"; dml != (values["index.rebuild_ms"] > 0) || dml != (values["index.rebuilds"] > 0) {
				t.Errorf("%s: index.rebuild_ms %v, index.rebuilds %v", w.name, values["index.rebuild_ms"], values["index.rebuilds"])
			}
		}
	}
}

// TestCountsRepeatable runs each single-session workload twice on one seed
// and requires identical work counts: simulated seconds, index rebuilds,
// sampled rows and plan-cache hits.
func TestCountsRepeatable(t *testing.T) {
	for _, w := range workloads {
		if w.sessions != 0 {
			continue
		}
		a, err := run(w, tinyOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(w, tinyOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		if a.counts != b.counts {
			t.Errorf("%s: counts differ between same-seed runs:\n%+v\n%+v", w.name, a.counts, b.counts)
		}
		if want := 2 * (w.warmup + 40); a.counts.Statements != want {
			t.Errorf("%s: %d statements, want %d", w.name, a.counts.Statements, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d is %s/%s, want %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestScaled checks that the scaled end-to-end metrics divide every wall
// time by the slowdown it was measured at and leave CPU time, counts, bytes
// and simulated seconds alone.
func TestScaled(t *testing.T) {
	ms := time.Millisecond
	ep := &episode{
		outs: [][]outcome{{
			{sql: "SELECT a FROM t", query: true, timed: true, lat: 4 * ms, slow: 2, sim: 0.5},
			{sql: "SELECT b, c FROM t", query: true, timed: true, lat: 9 * ms, slow: 3, sim: 0.5},
			{query: false, timed: true, lat: 6 * ms, slow: 2},
			{query: true, timed: false, lat: 50 * ms, slow: 1, sim: 0.5},
		}},
		win:        &window{elapsed: 300 * ms, scaledElapsed: 120 * ms, cpu: 30 * ms},
		heapLiveMB: 20,
	}
	ep.win.memAt.TotalAlloc, ep.win.memAt.Mallocs = 3<<20, 600
	raw, scaled := endToEnd([]*episode{ep}, false), endToEnd([]*episode{ep}, true)
	want := map[string][2]float64{
		"throughput_sps":     {10, 25},
		"select_p50_tmpl_ms": {6, math.Sqrt(6)},
		"select_p50_ms":      {4, 2},
		"select_p90_ms":      {9, 3},
		"cpu_ms_per_stmt":    {10, 10},
		"alloc_mb_per_stmt":  {1, 1},
		"allocs_per_stmt":    {200, 200},
		"heap_live_mb":       {20, 20},
		"sim_s_per_query":    {0.5, 0.5},
	}
	for name, w := range want {
		if math.Abs(raw[name]-w[0]) > 1e-9 || math.Abs(scaled[name]-w[1]) > 1e-9 {
			t.Errorf("%s: raw %v scaled %v, want %v", name, raw[name], scaled[name], w)
		}
	}
}
