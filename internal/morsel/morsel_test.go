package morsel

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestRunCoversAllRows: every index in [0, n) is visited exactly once for a
// spread of sizes and dops, including n smaller than one unit and dop
// exceeding the unit count.
func TestRunCoversAllRows(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 1000} {
		for _, dop := range []int{1, 2, 7, 32} {
			var mu sync.Mutex
			seen := make([]int, n)
			if err := Run(context.Background(), n, dop, 16, func(u, lo, hi int) error {
				if lo != u*16 {
					t.Errorf("unit %d starts at %d", u, lo)
				}
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				return nil
			}); err != nil {
				t.Fatalf("n=%d dop=%d: %v", n, dop, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d dop=%d: index %d visited %d times", n, dop, i, c)
				}
			}
		}
	}
}

// TestRunRecoversPanic: a panicking unit comes back as a *PanicError
// carrying the panic value, at dop 1 and in the pool.
func TestRunRecoversPanic(t *testing.T) {
	for _, dop := range []int{1, 4} {
		err := Run(context.Background(), 100, dop, 10, func(u, _, _ int) error {
			if u == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Fatalf("dop %d: err = %v, want PanicError(boom)", dop, err)
		}
	}
}
