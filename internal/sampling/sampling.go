// Package sampling implements the row sampling that powers JITS statistics
// collection. The paper's prototype invokes RUNSTATS with sampling and
// constructs on-the-fly sampling queries to collect specific predicate
// selectivities; here a Sampler draws a fixed-size random sample of a table
// (the paper notes the sample size sufficient for accurate statistics is
// independent of the table size) and EvaluateGroups computes the observed
// selectivity of every candidate predicate group from that one sample —
// which is why the sensitivity analysis treats all of a table's candidate
// groups as one unit: "once a table is sampled, it is relatively cheap to
// collect the selectivities of all predicate groups that belong to this
// table".
package sampling

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/morsel"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// evalMorselSize is the number of sample rows (or whole predicates) one
// parallel evaluation worker claims at a time.
const evalMorselSize = 512

// forEachChunk runs fn over [0, n) in fixed-size chunks on the morsel
// scheduler, across up to dop workers. fn must only write state owned by
// its chunk. Serial (and deterministic in call order) at dop <= 1.
//
// A panic inside fn (or an injected worker panic) stops the remaining
// workers and is re-raised on the caller's goroutine, with its original
// value, after every worker has exited; JITS.Prepare recovers it into a
// degraded, catalog-fallback preparation.
func forEachChunk(n, dop, chunkSize int, fn func(lo, hi int)) {
	err := morsel.Run(context.TODO(), n, dop, chunkSize, func(_, lo, hi int) error {
		fn(lo, hi)
		return nil
	})
	var pe *morsel.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
}

// Sampler draws deterministic pseudo-random samples; a fixed seed makes
// whole experiment runs reproducible.
type Sampler struct {
	rng *rand.Rand
}

// New returns a sampler seeded for reproducibility.
func New(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// EffectiveSampleRows reports how many rows a sample request for size rows
// from a tableRows-row table will actually materialize: tables smaller than
// twice the sample size are copied whole (cheaper than distinct-pick
// bookkeeping). Memory accounting must reserve for this number, not for the
// nominal size.
func EffectiveSampleRows(tableRows, size int) int {
	if tableRows <= 0 || size <= 0 {
		return 0
	}
	if tableRows <= size*2 {
		return tableRows
	}
	return size
}

// Rows draws up to size rows from the table. Tables smaller than twice the
// sample size are copied whole (cheaper than distinct-pick bookkeeping);
// larger tables are sampled uniformly without replacement. The meter is
// charged per sampled row — page-level sampling cost is proportional to the
// sample, not the table, mirroring the paper's observation that collection
// cost is independent of table size.
func (s *Sampler) Rows(tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights) [][]value.Datum {
	return s.RowsParallel(tbl, size, meter, w, 1)
}

// Sample is the fault-aware sampling entry point JITS uses: it honors
// cancellation and the sampling.rows fault point before touching the table,
// then draws exactly what RowsParallel draws. A returned error means no
// sample (and no RNG consumption), so the caller can degrade to catalog
// statistics without perturbing later draws.
func (s *Sampler) Sample(ctx context.Context, tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) ([][]value.Datum, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := faultinject.Hit(faultinject.SamplingRows); err != nil {
		return nil, err
	}
	return s.RowsParallel(tbl, size, meter, w, dop), nil
}

// RowsParallel is Rows with the row fetches fanned out across up to dop
// workers. The pseudo-random pick positions are still drawn serially from
// the sampler's rng — the drawn sample, its order, and the meter charge are
// identical to Rows at any dop; only the copying parallelizes. All fetches
// go through one table snapshot: workers read the same consistent image
// lock-free, every sampled row is freshly materialized (never an aliased
// window into live storage), and concurrent DML cannot shrink the table out
// from under a drawn position.
func (s *Sampler) RowsParallel(tbl *storage.Table, size int, meter *costmodel.Meter, w costmodel.Weights, dop int) [][]value.Datum {
	snap := tbl.Snapshot()
	n := snap.NumRows()
	if n == 0 || size <= 0 {
		return nil
	}
	if EffectiveSampleRows(n, size) == n {
		// Copy the table whole, morsel-parallel in storage order. Rows come
		// straight off the snapshot's column arrays.
		chunks := (n + evalMorselSize - 1) / evalMorselSize
		buckets := make([][][]value.Datum, chunks)
		forEachChunk(n, dop, evalMorselSize, func(lo, hi int) {
			rows := make([][]value.Datum, 0, hi-lo)
			snap.ScanRange(lo, hi, func(_ int, row []value.Datum) bool {
				rows = append(rows, row)
				return true
			})
			buckets[lo/evalMorselSize] = rows
		})
		var out [][]value.Datum
		for _, b := range buckets {
			out = append(out, b...)
		}
		meter.Add(w.SampleRow * float64(len(out)))
		return out
	}
	picked := make(map[int]bool, size)
	positions := make([]int, 0, size)
	for len(positions) < size {
		idx := s.rng.Intn(n)
		if picked[idx] {
			continue
		}
		picked[idx] = true
		positions = append(positions, idx)
	}
	out := make([][]value.Datum, len(positions))
	forEachChunk(len(positions), dop, evalMorselSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Positions were drawn against the snapshot's row count, so the
			// fetch cannot fail.
			out[i], _ = snap.Row(positions[i])
		}
	})
	meter.Add(w.SampleRow * float64(len(out)))
	return out
}

// EvaluateGroups returns the observed selectivity of each predicate group
// over the sample. Per-predicate match vectors are computed once and shared
// across groups, so the cost is dominated by |sample| × |distinct
// predicates|, not by the exponential group count. A nil sample yields all
// zeros.
func EvaluateGroups(sample [][]value.Datum, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights) []float64 {
	return EvaluateGroupsParallel(sample, groups, meter, w, 1)
}

// EvaluateGroupsParallel is EvaluateGroups with both phases fanned out
// across up to dop workers: each distinct predicate's match vector is
// computed by row-morsels, and the per-group conjunction counts run one
// group per worker. Selectivities and meter totals are identical to the
// serial evaluation at any dop (each worker charges a local sub-meter,
// merged once), so compile-time statistics — and therefore plans — do not
// depend on the degree of parallelism.
func EvaluateGroupsParallel(sample [][]value.Datum, groups [][]qgm.Predicate, meter *costmodel.Meter, w costmodel.Weights, dop int) []float64 {
	out := make([]float64, len(groups))
	if len(sample) == 0 {
		return out
	}

	// Distinct predicates across all groups, in deterministic first-use
	// order; each gets one shared match vector.
	type predEntry struct {
		pred qgm.Predicate
		vec  []bool
	}
	index := make(map[string]int)
	var entries []*predEntry
	for _, group := range groups {
		for _, p := range group {
			k := p.String()
			if _, ok := index[k]; !ok {
				index[k] = len(entries)
				entries = append(entries, &predEntry{pred: p})
			}
		}
	}

	// Phase 1: match vectors, one predicate per chunk (vectors are
	// independent; rows within a vector stay sequential for locality).
	forEachChunk(len(entries), dop, 1, func(lo, hi int) {
		sub := meter.Worker()
		for ei := lo; ei < hi; ei++ {
			e := entries[ei]
			v := make([]bool, len(sample))
			for i, row := range sample {
				v[i] = e.pred.Matches(row)
			}
			e.vec = v
			sub.Add(w.PredEval * float64(len(sample)))
		}
		sub.Merge()
	})

	// Phase 2: conjunction counts, one group per chunk.
	forEachChunk(len(groups), dop, 1, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			group := groups[gi]
			if len(group) == 0 {
				out[gi] = 1
				continue
			}
			vecs := make([][]bool, len(group))
			for i, p := range group {
				vecs[i] = entries[index[p.String()]].vec
			}
			count := 0
		rows:
			for i := range sample {
				for _, v := range vecs {
					if !v[i] {
						continue rows
					}
				}
				count++
			}
			out[gi] = float64(count) / float64(len(sample))
		}
	})
	return out
}

// EstimateNDV estimates a column's number of distinct values from a sample
// of n rows out of a table of tableCard rows, using the Duj1 estimator of
// Haas et al. (the one RUNSTATS-style sampled statistics collection uses):
//
//	d̂ = d / (1 − (1−q)·f1/n)
//
// where d is the distinct count in the sample, f1 the number of values
// appearing exactly once, and q = n/N the sampling fraction. NULLs in the
// sample column are ignored. The result is clamped to [d, N].
func EstimateNDV(column []value.Datum, tableCard int) int64 {
	counts := make(map[value.Datum]int, len(column))
	n := 0
	for _, d := range column {
		if d.IsNull() {
			continue
		}
		counts[d]++
		n++
	}
	d := int64(len(counts))
	if d == 0 || tableCard <= 0 {
		return 0
	}
	if n >= tableCard {
		return d // full scan: exact
	}
	f1 := 0
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	q := float64(n) / float64(tableCard)
	denom := 1 - (1-q)*float64(f1)/float64(n)
	if denom <= 0 {
		return int64(tableCard) // everything distinct in the sample: key-like
	}
	est := int64(float64(d) / denom)
	if est < d {
		est = d
	}
	if est > int64(tableCard) {
		est = int64(tableCard)
	}
	return est
}

// SelectivityFloor is the smallest selectivity a sample of the given size
// can credibly assert; observed-zero groups are floored to half a row to
// avoid zero cardinality estimates downstream.
func SelectivityFloor(sampleSize int) float64 {
	if sampleSize <= 0 {
		return 0.001
	}
	return 0.5 / float64(sampleSize)
}
