package executor

import (
	"context"
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// countingCtx is a never-done context whose Err starts reporting
// context.Canceled once it has been called more than cancelAfter times
// (never, when cancelAfter < 0). It counts every call. Single goroutine
// only: the dop-1 executor runs every unit on the caller's goroutine.
type countingCtx struct {
	context.Context
	cancelAfter int
	calls       int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAfter >= 0 && c.calls > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// execScanWithCtx runs a full-table SELECT over table name at dop 1 under
// ctx.
func execScanWithCtx(t *testing.T, e *env, name string, ctx context.Context) (*Result, error) {
	t.Helper()
	stmt, err := sqlparser.Parse(`SELECT x FROM ` + name + ` WHERE x >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qgm.Build(stmt.(*sqlparser.SelectStmt), e)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Blocks[0]
	var compileMeter, execMeter costmodel.Meter
	plan, err := optimizer.Optimize(blk, &optimizer.Context{
		Est: &optimizer.Estimator{Cat: e.cat}, Indexes: e.indexes,
		Weights: costmodel.DefaultWeights(), Meter: &compileMeter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Execute(blk, plan, &Runtime{
		DB: e.db, Indexes: e.indexes, Weights: costmodel.DefaultWeights(),
		Meter: &execMeter, Ctx: ctx, Parallelism: 1,
	})
}

// TestCancelMidScanAtDop1: at dop 1 a scan is one work unit covering the
// whole table, so the context must also be checked chunk by chunk inside
// it. A context that cancels right after the first check the scan makes
// must stop the scan at the next chunk boundary, long before the last of
// its 13 chunks.
func TestCancelMidScanAtDop1(t *testing.T) {
	db := storage.NewDatabase()
	db.SetChunkSize(16)
	schema := storage.MustSchema(storage.Column{Name: "x", Kind: value.KindInt})
	big, err := db.CreateTable("big", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("empty", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Datum, 200)
	for i := range rows {
		rows[i] = []value.Datum{value.NewInt(int64(i))}
	}
	if err := big.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, cat: catalog.New(), indexes: index.NewSet()}

	// The checks Execute makes outside any scan work unit: an empty table
	// has no unit to run.
	outside := &countingCtx{Context: context.Background(), cancelAfter: -1}
	if _, err := execScanWithCtx(t, e, "empty", outside); err != nil {
		t.Fatal(err)
	}

	clean := &countingCtx{Context: context.Background(), cancelAfter: -1}
	res, err := execScanWithCtx(t, e, "big", clean)
	if err != nil || len(res.Rows) != 200 {
		t.Fatalf("uncancelled scan: %d rows, err %v", len(res.Rows), err)
	}
	chunks := (200 + 15) / 16
	if clean.calls < outside.calls+chunks {
		t.Fatalf("a %d-chunk scan checked the context %d times, %d outside the scan: want one check per chunk",
			chunks, clean.calls, outside.calls)
	}

	// Cancel right after the scan's first check (the one before its work
	// unit starts).
	ctx := &countingCtx{Context: context.Background(), cancelAfter: outside.calls + 1}
	if _, err := execScanWithCtx(t, e, "big", ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.calls > outside.calls+2 {
		t.Fatalf("scan checked the context %d times after it was cancelled; want it to stop at the next chunk",
			ctx.calls-outside.calls-1)
	}
}
