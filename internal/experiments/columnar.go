package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ColumnarRow reports one execution configuration of the columnar sweep.
type ColumnarRow struct {
	ChunkSize   int     // storage chunk size
	Workers     int     // degree of intra-query parallelism
	WallSeconds float64 // measured wall clock for the whole query stream
	Speedup     float64 // baseline wall clock / this row's wall clock
	SimSeconds  float64 // simulated cost-model total — identical in every row
	Queries     int
}

// DefaultColumnarChunks sweeps chunk sizes around the default, which comes
// first: the default chunk size at dop 1 is the sweep's baseline.
func DefaultColumnarChunks() []int {
	return []int{storage.DefaultChunkSize, 256, 1024, 16384}
}

// ColumnarSweep replays the same JITS-enabled query stream through every
// chunk size × worker-count configuration and measures wall-clock time.
// Like ParallelSpeedup, the sweep is also a differential harness: every
// configuration must produce the same result fingerprints and the same
// simulated cost-model seconds as the baseline — the default chunk size at
// dop 1 — because chunk geometry and parallelism are wall-clock knobs, not
// semantics knobs, and the function fails on any divergence.
func ColumnarSweep(opts Options, chunks []int, workers []int) ([]ColumnarRow, error) {
	if len(chunks) == 0 {
		chunks = DefaultColumnarChunks()
	}
	if len(workers) == 0 {
		workers = []int{1, 4}
	}
	if chunks[0] != storage.DefaultChunkSize || workers[0] != 1 {
		return nil, fmt.Errorf("experiments: columnar sweep needs chunk size %d at dop 1 first as baseline", storage.DefaultChunkSize)
	}
	var out []ColumnarRow
	var baseline []string
	var baselineSim float64
	var baselineWall float64
	for _, chunk := range chunks {
		for _, dop := range workers {
			cfg := engine.Config{
				Parallelism:      dop,
				JITS:             opts.jitsConfig(),
				Trace:            opts.Trace,
				StorageChunkSize: chunk,
			}
			e := opts.newEngine(cfg)
			d, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				return nil, err
			}
			stmts := d.Queries(opts.Queries, opts.Seed+1)
			fingerprints := make([]string, 0, len(stmts))
			sim := 0.0
			start := time.Now()
			for _, s := range stmts {
				res, err := e.Exec(s.SQL)
				if err != nil {
					return nil, fmt.Errorf("experiments: columnar chunk %d at dop %d, %q: %w",
						chunk, dop, s.SQL, err)
				}
				sim += res.Metrics.TotalSeconds
				fingerprints = append(fingerprints, fingerprintResult(res))
			}
			wall := time.Since(start).Seconds()
			first := baseline == nil
			if first {
				baseline, baselineSim, baselineWall = fingerprints, sim, wall
			} else {
				for i := range fingerprints {
					if fingerprints[i] != baseline[i] {
						return nil, fmt.Errorf("experiments: columnar chunk %d dop %d diverged from the baseline on query %d (%s)",
							chunk, dop, i, stmts[i].SQL)
					}
				}
				if diff := math.Abs(sim - baselineSim); diff > 1e-6*(1+baselineSim) {
					return nil, fmt.Errorf("experiments: columnar chunk %d dop %d simulated time %.6f != baseline %.6f",
						chunk, dop, sim, baselineSim)
				}
			}
			row := ColumnarRow{
				ChunkSize: chunk, Workers: dop,
				WallSeconds: wall, SimSeconds: sim, Queries: len(stmts),
			}
			if first || wall <= 0 {
				row.Speedup = 1
			} else {
				row.Speedup = baselineWall / wall
			}
			out = append(out, row)
		}
	}
	return out, nil
}
