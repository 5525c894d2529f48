package hana

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/tpch"
)

// The distributed executor promises the same thing the morsel executor
// does, one level up: shard count and worker count must never show up in
// the output. Shipped rows carry their global scan sequence and the
// coordinator's k-way merge restores the exact serial order, so a scan
// fanned out over N shard replicas is byte-identical to the single-node
// partition scan — and everything built on top of it (distributed
// aggregation partials, broadcast joins) inherits the property.
// Property-check it across the TPC-H query set: every query on a sharded
// engine must equal the same query pinned local with WithLocalOnly(), and
// equal a plain single-node engine, at shard counts 1/2/4 and widths 1/4.
func TestDistributedExecutionMatchesSerial(t *testing.T) {
	newLoaded := func(shards int) *engine.Engine {
		return loadTPCH(t, engine.Config{Parallelism: 4, Topology: dist.Topology{Shards: shards}})
	}

	serial := newLoaded(0) // no topology: the pre-distribution engine
	ctx := context.Background()

	for _, shards := range []int{1, 2, 4} {
		e := newLoaded(shards)
		if shards == 2 {
			// Exercise the wire codec on one fleet: chunks round-trip
			// through Encode/DecodeChunk instead of in-process handoff.
			e.DistTransport().Wire = true
		}
		for _, id := range tpch.QueryIDs() {
			q := tpch.Queries()[id]
			t.Run(fmt.Sprintf("shards=%d/Q%d", shards, id), func(t *testing.T) {
				want, err := serial.ExecuteContext(ctx, q.SQL, engine.WithParallelism(1))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				local, err := e.ExecuteContext(ctx, q.SQL, engine.WithLocalOnly())
				if err != nil {
					t.Fatalf("local-only: %v", err)
				}
				compareResults(t, "local-only", q.SQL, local, want)
				for _, width := range []int{1, 4} {
					got, err := e.ExecuteContext(ctx, q.SQL, engine.WithParallelism(width))
					if err != nil {
						t.Fatalf("dist width %d: %v", width, err)
					}
					compareResults(t, fmt.Sprintf("dist width %d", width), q.SQL, got, want)
				}
			})
		}
	}
}

func compareResults(t *testing.T, label, sql string, got, want *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema diverged for %q: %v vs %v", label, sql, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count diverged for %q: %d vs %d", label, sql, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !rowsEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d diverged for %q:\ngot:  %v\nwant: %v", label, i, sql, got.Rows[i], want.Rows[i])
		}
	}
}
