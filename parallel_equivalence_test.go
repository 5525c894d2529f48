package hana

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hana/internal/engine"
	"hana/internal/tpch"
	"hana/internal/value"
)

// The executor promises byte-identical results at any parallelism: morsel
// boundaries depend only on input size and partials merge in morsel order,
// so worker count must never show up in the output. Property-check that
// across the TPC-H query set: every query at parallelism 1 must equal the
// same query at parallelism 4, row for row, in order.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	serial := loadTPCH(t, engine.Config{Parallelism: 1})
	parallel := loadTPCH(t, engine.Config{Parallelism: 4})
	ctx := context.Background()

	for _, id := range tpch.QueryIDs() {
		q := tpch.Queries()[id]
		t.Run(fmt.Sprintf("Q%d", id), func(t *testing.T) {
			want, err := serial.ExecuteContext(ctx, q.SQL, engine.WithParallelism(1))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			got, err := parallel.ExecuteContext(ctx, q.SQL, engine.WithParallelism(4))
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			compareResults(t, "width 4 vs width 1", q.SQL, got, want)
		})
	}
}

// The vectorized executor promises the same results as the classic
// row-at-a-time executor: batches are cut on the same morsel boundaries the
// row scan used and late materialization must be invisible in the output.
// The oracle is independent of the engine under test: testdata/tpch holds
// every TPC-H query's result as produced by the former row executor at width
// 1, checked in once and never regenerated from this engine. Every query at
// width 1 and width 4 must equal its golden file row for row, in order.
func TestVectorizedExecutionMatchesRowSerial(t *testing.T) {
	serial := loadTPCH(t, engine.Config{Parallelism: 1})
	parallel := loadTPCH(t, engine.Config{Parallelism: 4})
	ctx := context.Background()

	for _, id := range tpch.QueryIDs() {
		q := tpch.Queries()[id]
		t.Run(fmt.Sprintf("Q%d", id), func(t *testing.T) {
			schema, rows, err := readGolden(goldenPath(id))
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			want := &engine.Result{Schema: schema, Rows: rows}
			for _, width := range []int{1, 4} {
				e := serial
				if width > 1 {
					e = parallel
				}
				got, err := e.ExecuteContext(ctx, q.SQL, engine.WithParallelism(width))
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				compareResults(t, fmt.Sprintf("width %d vs golden", width), q.SQL, got, want)
			}
		})
	}
}

func rowsEqual(a, b value.Row) bool {
	return reflect.DeepEqual(a, b)
}
