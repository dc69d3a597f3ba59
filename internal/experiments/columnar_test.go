package experiments

import (
	"testing"

	"repro/internal/storage"
)

// TestColumnarQuick runs a small sweep — the default chunk size against a
// tiny one, serial and dop 2 — relying on the sweep's built-in fingerprint
// and simulated-cost cross-checks to fail on any divergence.
func TestColumnarQuick(t *testing.T) {
	opts := QuickOptions()
	opts.Queries = 60
	rows, err := ColumnarSweep(opts, []int{storage.DefaultChunkSize, 64}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].ChunkSize != storage.DefaultChunkSize || rows[0].Workers != 1 || rows[0].Speedup != 1 {
		t.Fatalf("baseline row malformed: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Queries != 60 {
			t.Errorf("chunk %d dop %d ran %d queries, want 60", r.ChunkSize, r.Workers, r.Queries)
		}
		if r.SimSeconds <= 0 || r.WallSeconds <= 0 {
			t.Errorf("chunk %d dop %d has non-positive timings: %+v", r.ChunkSize, r.Workers, r)
		}
	}
	// A baseline in the wrong position must be rejected.
	if _, err := ColumnarSweep(opts, []int{64}, nil); err == nil {
		t.Error("sweep without the default-chunk dop-1 baseline first must fail")
	}
}
