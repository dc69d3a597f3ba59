// Package morsel is the one work scheduler of the engine. The executor's
// operators and JITS sampling both split their input into ranges that a
// small worker pool claims from a shared atomic cursor (the scheduling model
// of Leis et al., "Morsel-Driven Parallelism"), so a worker stuck on a slow
// range never stalls the rest.
package morsel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// PanicError is what Run returns when a unit panicked — a real fault or an
// injected worker panic. Value is what was passed to panic.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", e.Value) }

// Count returns how many units of the given size [0, n) splits into.
func Count(n, size int) int {
	if n <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// Run partitions [0, n) into units of size rows and runs fn(unit, lo, hi)
// across up to dop workers. fn must only touch state owned by its unit. At
// dop <= 1 (or with a single unit) the units run in order on the calling
// goroutine.
//
// Every unit passes the executor.morsel.latency and executor.worker.panic
// fault points. Cancellation is checked before every unit is claimed: once
// ctx is done (nil means never), or any fn returns an error, or a unit
// panics (recovered into a *PanicError), the remaining workers stop
// claiming units, the pool drains, and the first error is returned after
// every worker has exited. Run never leaks a goroutine and never lets a
// worker panic escape.
func Run(ctx context.Context, n, dop, size int, fn func(unit, lo, hi int) error) error {
	units := Count(n, size)
	if units == 0 {
		return nil
	}
	run := func(u int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Value: p}
			}
		}()
		faultinject.SleepIf(faultinject.MorselLatency)
		if fault := faultinject.Hit(faultinject.WorkerPanic); fault != nil {
			panic(fault)
		}
		lo := u * size
		return fn(u, lo, min(lo+size, n))
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	dop = min(dop, units)
	if dop <= 1 {
		for u := 0; u < units; u++ {
			if err := ctxErr(); err != nil {
				return err
			}
			if err := run(u); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := ctxErr(); err != nil {
					fail(err)
					return
				}
				u := int(cursor.Add(1)) - 1
				if u >= units {
					return
				}
				if err := run(u); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
