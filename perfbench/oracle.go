package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/workload"
)

// oracleWorkers is how many statements the oracle replays at once: one per
// CPU of the 2-vCPU machine the benchmark was sized on.
const oracleWorkers = 2

// answer is the reference engine's result for one statement.
type answer struct {
	fp  [sha256.Size]byte
	err error
}

// verify replays every executed statement on a reference engine loaded
// from the same data seed and returns one line per statement whose result
// differs or that failed on either side, in execution order. outs holds
// each episode's sessions and seeds each episode's data seed. Each
// episode replays on its own freshly loaded reference, in execution order,
// and the episodes replay side by side. A read-only stream runs only
// SELECTs, so the reference answers each of its distinct texts once.
func verify(scale float64, seeds []int64, outs [][][]outcome) ([]string, error) {
	readOnly := true
	for _, ep := range outs {
		for _, so := range ep {
			for _, o := range so {
				readOnly = readOnly && o.query
			}
		}
	}

	// answers[e] holds episode e's reference answers, session by session.
	answers := make([][][]answer, len(outs))
	if err := parallel(len(outs), func(e int) error {
		ref := engine.New(referenceConfig())
		defer ref.Close()
		if _, err := workload.Load(ref, workload.Spec{Scale: scale, Seed: seeds[e]}); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		memo := make(map[string]answer)
		answers[e] = make([][]answer, len(outs[e]))
		for i, so := range outs[e] {
			answers[e][i] = make([]answer, len(so))
			for k, o := range so {
				a, ok := memo[o.sql]
				if !ok {
					a = replay(ref, o.sql)
					if readOnly {
						memo[o.sql] = a
					}
				}
				answers[e][i][k] = a
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var failures []string
	for e, ep := range outs {
		for i, so := range ep {
			for k, o := range so {
				want := answers[e][i][k]
				switch {
				case o.err != nil:
					failures = append(failures, fmt.Sprintf("error %v: %s", o.err, clip(o.sql)))
				case want.err != nil:
					failures = append(failures, fmt.Sprintf("reference error %v: %s", want.err, clip(o.sql)))
				case o.fp != want.fp:
					failures = append(failures, "result differs from reference: "+clip(o.sql))
				}
			}
		}
	}
	return failures, nil
}

// replay runs one statement on the reference engine.
func replay(ref *engine.Engine, sql string) answer {
	res, err := ref.ExecWithContext(context.Background(), sql, engine.ExecOptions{})
	if err != nil {
		return answer{err: err}
	}
	return answer{fp: sha256.Sum256([]byte(fingerprint(res.Columns, res.Rows, res.RowsAffected, limitWithoutOrder(sql))))}
}

// parallel calls f(0) … f(n-1) on oracleWorkers goroutines and returns
// their errors joined.
func parallel(n int, f func(int) error) error {
	var next atomic.Int64
	errs := make([]error, oracleWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n && errs[w] == nil; k = int(next.Add(1)) - 1 {
				errs[w] = f(k)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// limitWithoutOrder reports a statement whose row set depends on the plan:
// LIMIT keeps whichever rows come first unless ORDER BY fixes the order.
func limitWithoutOrder(sql string) bool {
	u := strings.ToUpper(sql)
	return strings.Contains(u, " LIMIT ") && !strings.Contains(u, "ORDER BY")
}

// fingerprint renders a result for comparison: the columns, then the rows
// as a sorted multiset with floats rounded to six significant digits (so
// summation order cannot flip the comparison), or only the row count when
// countOnly, then the affected-row count.
func fingerprint(cols []string, rows [][]value.Datum, affected int, countOnly bool) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(cols, ","))
	if countOnly {
		fmt.Fprintf(&sb, "\nrows=%d", len(rows))
	} else {
		lines := make([]string, len(rows))
		for i, row := range rows {
			var rb strings.Builder
			for _, d := range row {
				if d.Kind() == value.KindFloat {
					fmt.Fprintf(&rb, "%.6g|", d.Float())
					continue
				}
				rb.WriteString(d.String())
				rb.WriteByte('|')
			}
			lines[i] = rb.String()
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteByte('\n')
			sb.WriteString(l)
		}
	}
	fmt.Fprintf(&sb, "\naffected=%d", affected)
	return sb.String()
}

func clip(sql string) string {
	if len(sql) > 160 {
		return sql[:160] + "..."
	}
	return sql
}
