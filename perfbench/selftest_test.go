package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"hana/internal/tpch"
	"hana/internal/value"
)

// newTestRun builds a tiny instance of a workload with its oracle answers
// recorded, the way execute does before the warm-up.
func newTestRun(t *testing.T, name string) *run {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	sp.sf = 0.001
	r := &run{spec: sp, seed: 7, width: 2, root: t.TempDir(), rng: rand.New(rand.NewSource(7))}
	r.data = tpch.Generate(sp.sf, r.seed)
	switch {
	case sp.durable:
		r.groups = hybridStatements(r.data, r.rng)
		r.writer = newWriter(r, r.seed)
	default:
		r.groups = olapStatements()
	}
	ctx := context.Background()
	if err := r.setup(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.sys.close() })
	if err := r.oracle(ctx); err != nil {
		t.Fatal(err)
	}
	if r.writer != nil {
		if err := r.writer.countLoaded(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestOracleComparisons(t *testing.T) {
	row := func(k string, f float64, i int64) value.Row {
		return value.Row{value.NewString(k), value.NewDouble(f), value.NewInt(i)}
	}
	want := []value.Row{row("A", 1234.5678901234, 7), row("B", 0.25, 8)}
	loose := &stmt{loose: true}
	loose.expect(want)
	exact := &stmt{}
	exact.expect(want)

	perturbed := []value.Row{want[0], row("B", 0.2500001, 8)}
	if loose.matches(perturbed) || exact.matches(perturbed) {
		t.Fatal("a perturbed value must fail both comparisons")
	}
	if loose.matches(want[:1]) {
		t.Fatal("a missing row must fail the loose comparison")
	}
	// Another summation order: rows swapped, last bits moved.
	reordered := []value.Row{want[1], row("A", 1234.5678901234+1e-10, 7)}
	if !loose.matches(reordered) {
		t.Fatal("the loose comparison must ignore row order and last-bit summation differences")
	}
	if exact.matches(reordered) {
		t.Fatal("the exact digest must see row order")
	}
	// A sum of cents on a rounding boundary, as Hive and the local engine
	// computed Q1's sum_base_price for the same data.
	boundary := &stmt{loose: true}
	boundary.expect([]value.Row{row("N", 21403572.549999997, 1)})
	if !boundary.matches([]value.Row{row("N", 21403572.550000004, 1)}) {
		t.Fatal("values on either side of a rounding boundary must match")
	}
}

// TestPerturbedOracleIsCaught corrupts one oracle answer and checks that a
// pass counts exactly that statement as failed.
func TestPerturbedOracleIsCaught(t *testing.T) {
	r := newTestRun(t, "olap")
	ctx := context.Background()
	if err := r.pass(ctx, true); err != nil {
		t.Fatal(err)
	}
	if f := r.failed.Load(); f != 0 {
		t.Fatalf("clean pass failed %d checks: %v", f, r.errors())
	}
	s := r.groups[0][0]
	s.want = s.want[:len(s.want)-1] + "x"
	if err := r.pass(ctx, true); err != nil {
		t.Fatal(err)
	}
	if f := r.failed.Load(); f != 1 {
		t.Fatalf("perturbed digest: %d failures, want 1 (%v)", f, r.errors())
	}
}

// TestDroppedWriteIsCaught acknowledges new orders, then deletes one behind
// the benchmark's back: both the live count check and the check after
// Close and engine.Open must fail.
func TestDroppedWriteIsCaught(t *testing.T) {
	r := newTestRun(t, "htap-hybrid")
	ctx := context.Background()
	w := r.writer
	for i := 0; i < 5; i++ {
		w.newOrder(ctx, i, time.Now())
	}
	if w.acked != 5 {
		t.Fatalf("acked %d of 5 new orders: %v", w.acked, r.errors())
	}
	r.checkCounts(ctx, "clean")
	if f := r.failed.Load(); f != 0 {
		t.Fatalf("clean counts failed: %v", r.errors())
	}
	if _, err := r.sys.e.ExecuteContext(ctx, "DELETE FROM lineitem WHERE l_orderkey = 100000002 AND l_linenumber = 1"); err != nil {
		t.Fatal(err)
	}
	if err := r.verifyDurable(ctx); err != nil {
		t.Fatal(err)
	}
	if f := r.failed.Load(); f != 2 {
		t.Fatalf("dropped write: %d failures, want 2 (live and after reopen): %v", f, r.errors())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	got, pct := tail(v)
	if got != 90 || pct != 90 {
		t.Fatalf("tail = %v at p%v, want 90 at p90", got, pct)
	}
}

// TestEveryWorkloadRunsCorrectly runs each workload end to end at a tiny
// scale, traced (so the writer, the reader, engine goroutines and the
// tracer all run at once; run it with -race) and untraced.
func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	ctx := context.Background()
	for _, sp := range specs {
		sp.sf = 0.001
		sp.round = 250 * time.Millisecond
		for _, traced := range []bool{false, true} {
			rep, err := execute(ctx, sp, 3, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !rep.correct() {
				t.Fatalf("%s traced=%v: %d of %d checks failed: %v", sp.name, traced, rep.failed, rep.attempted, rep.errors)
			}
			if traced && len(rep.layers) == 0 {
				t.Fatalf("%s: the traced run recorded no spans", sp.name)
			}
		}
	}
}
