package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hana/internal/engine"
	"hana/internal/fed"
	"hana/internal/sqlparse"
	"hana/internal/tpch"
)

// A run builds the system under test at least minSetups times and goes on
// until setupBudget has been spent on builds (at most maxSetups); setup_s
// is the median. So a cheap set-up (federated: ~0.1 s) still gets enough
// builds for a steady median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// run is one invocation of one workload.
type run struct {
	spec  spec
	seed  int64
	width int    // engine Parallelism: nproc
	root  string // scratch directory of this run

	data   *tpch.Data
	sys    *system
	groups [][]*stmt // the read mix; a pass runs the groups in shuffled order
	rng    *rand.Rand

	// tracing state: tr is non-nil only inside the traced window. The
	// reader publishes its open statement so the wrapped adapter (called on
	// engine goroutines) can attach its span to it.
	tr      atomic.Pointer[tracer]
	curStmt atomic.Int64
	curExec atomic.Int64
	stmtSeq atomic.Int64
	hosts   int

	setupTimes []time.Duration
	attempted  atomic.Int64
	failed     atomic.Int64
	errMu      sync.Mutex
	errs       []string // hana:guardedby errMu

	hintedSeen int       // hinted statements issued since the window began (reader only)
	reads      readStats // reader only

	writer   *writer // htap-hybrid only
	recovery time.Duration
}

// round is one closed-loop round of the window.
type round struct {
	statements int
	d          time.Duration
}

// readStats accumulates what the executor reported for read statements.
type readStats struct {
	samples      []sample
	rowsOut      int64
	rowsScanned  int64
	morsels      int64
	workers      int64
	hinted       int64
	exchangeSum  time.Duration // olap-dist, traced: distributed minus local-only
	exchangeN    int64
	localOnly    time.Duration // time spent in the paired local-only runs
	rounds       []round       // untraced windows: each round's size and duration
	windowLength time.Duration
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	r.errMu.Lock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	}
	r.errMu.Unlock()
}

func (r *run) errors() []string {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return append([]string(nil), r.errs...)
}

// build sets up the system under test once into a fresh directory.
func (r *run) build(ctx context.Context, i int) (*system, error) {
	dir := filepath.Join(r.root, fmt.Sprintf("sut%d", i))
	switch {
	case r.spec.fed:
		r.hosts++
		host := fmt.Sprintf("perfbench-hive-%d-%d", r.seed, r.hosts)
		return setupFederation(ctx, r.data, dir, r.width, host, r.timedFactory)
	case r.spec.durable:
		return setupHybrid(ctx, r.data, dir, r.width)
	default:
		return setupLocal(ctx, r.data, dir, r.width, r.spec.shards)
	}
}

// setup builds the system repeatedly, timing each build, and keeps the
// last one.
func (r *run) setup(ctx context.Context) error {
	var spent time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		sys, err := r.build(ctx, i)
		if err != nil {
			return fmt.Errorf("setup %s: %w", r.spec.name, err)
		}
		d := time.Since(start)
		r.setupTimes = append(r.setupTimes, d)
		spent += d
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			r.sys = sys
			return nil
		}
		if err := sys.close(); err != nil {
			return err
		}
	}
}

// oracle records the expected answer of every statement, untimed.
func (r *run) oracle(ctx context.Context) error {
	switch {
	case r.spec.fed:
		ref, err := setupOracleFederation(ctx, r.data, filepath.Join(r.root, "oracle"))
		if err != nil {
			return fmt.Errorf("oracle engine: %w", err)
		}
		defer func() { _ = ref.close() }()
		for _, g := range r.groups {
			res, err := ref.e.ExecuteContext(ctx, g[0].sql, engine.WithParallelism(1))
			if err != nil {
				return fmt.Errorf("oracle %s: %w", g[0].name, err)
			}
			for _, s := range g {
				s.expect(res.Rows)
			}
		}
		return nil
	default:
		opts := []engine.ExecOption{engine.WithParallelism(1)}
		if r.spec.shards > 1 {
			opts = append(opts, engine.WithLocalOnly())
		}
		for _, g := range r.groups {
			for _, s := range g {
				res, err := r.sys.e.ExecuteContext(ctx, s.sql, opts...)
				if err != nil {
					return fmt.Errorf("oracle %s: %w", s.name, err)
				}
				s.expect(res.Rows)
			}
		}
		return nil
	}
}

// read issues one read statement through the public API the way a client
// does (sqlparse.Parse, then Engine.ExecuteStmtContext), checks its answer
// and, when recording, keeps its latency under the given name.
func (r *run) read(ctx context.Context, s *stmt, name string, record bool) {
	tr := r.tr.Load()
	stmtID := r.stmtSeq.Add(1)
	var rootID, parseID, execID int64
	var before counters
	if tr != nil {
		rootID, parseID, execID = tr.newID(), tr.newID(), tr.newID()
		before = r.snap(false)
		r.curStmt.Store(stmtID)
		r.curExec.Store(execID)
	}
	r.attempted.Add(1)
	t0 := time.Now()
	st, err := sqlparse.Parse(s.sql)
	t1 := time.Now()
	var res *engine.Result
	if err == nil {
		res, err = r.sys.e.ExecuteStmtContext(ctx, st)
	}
	t2 := time.Now()
	switch {
	case err != nil:
		r.fail("%s: %v", s.name, err)
	case !s.matches(res.Rows):
		r.fail("%s: wrong result (%d rows)", s.name, len(res.Rows))
	case record:
		r.reads.samples = append(r.reads.samples, sample{name: name, lat: t2.Sub(t0)})
		r.reads.rowsOut += int64(len(res.Rows))
		r.reads.rowsScanned += res.Stats.RowsScanned
		r.reads.morsels += res.Stats.Morsels
		r.reads.workers += res.Stats.Workers
		if s.hinted {
			r.reads.hinted++
		}
	}
	if tr == nil {
		return
	}
	tr.add(span{id: parseID, parent: rootID, stmt: stmtID, name: spanParse, track: trackReader, start: t0, end: t1})
	tr.add(span{id: execID, parent: rootID, stmt: stmtID, name: spanExec, track: trackReader, start: t1, end: t2})
	tr.add(span{id: rootID, stmt: stmtID, name: spanRead, track: trackReader, start: t0, end: t2,
		args: r.snap(false).sub(before).args()})
	if r.spec.shards > 1 && err == nil {
		r.localOnly(ctx, tr, s, stmtID, t2.Sub(t1), t1.Sub(t0))
	}
}

// localOnly re-runs a statement pinned to the coordinator on the same
// engine (engine.WithLocalOnly); the difference to the distributed run is
// the statement's exchange cost.
func (r *run) localOnly(ctx context.Context, tr *tracer, s *stmt, stmtID int64, distExec, parse time.Duration) {
	id := tr.newID()
	r.attempted.Add(1)
	start := time.Now()
	res, err := r.sys.e.ExecuteContext(ctx, s.sql, engine.WithLocalOnly())
	end := time.Now()
	r.reads.localOnly += end.Sub(start)
	tr.add(span{id: id, stmt: stmtID, name: spanLocalOnly, track: trackReader, start: start, end: end})
	switch {
	case err != nil:
		r.fail("%s local-only: %v", s.name, err)
		return
	case !s.matches(res.Rows):
		r.fail("%s local-only: wrong result", s.name)
		return
	}
	r.reads.exchangeSum += distExec - (end.Sub(start) - parse)
	r.reads.exchangeN++
}

// pass runs every statement group once in a seeded order.
func (r *run) pass(ctx context.Context, record bool) error {
	for _, gi := range r.rng.Perm(len(r.groups)) {
		for _, s := range r.groups[gi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			name := s.name
			if s.hinted {
				// The first pass after the validity window lapses
				// materializes every hinted query; the next one is served
				// from the remote cache.
				if r.hintedSeen%hintedPerLapse == 0 {
					r.sys.hive.MS.CacheInvalidateAll()
				}
				if r.hintedSeen%hintedPerLapse < len(r.groups) {
					name += "/materialize"
				} else {
					name += "/cached"
				}
				r.hintedSeen++
			}
			r.read(ctx, s, name, record)
		}
	}
	return nil
}

// passesPerRound keeps a closed-loop window to whole rounds of the
// workload's schedule: the federated invalidation cycle spans two passes.
func (r *run) passesPerRound() int {
	if r.spec.fed {
		return hintedPerLapse / len(r.groups)
	}
	return 1
}

// window runs the closed-loop reader for the rounds a window of d holds
// and returns the elapsed time. A machine so slow that the rounds take
// over windowCap times d ends the window early.
func (r *run) window(ctx context.Context, d time.Duration) (time.Duration, error) {
	r.hintedSeen = 0
	start := time.Now()
	limit := time.Duration(windowCap * float64(d))
	for i := 0; i < r.spec.rounds(d) && time.Since(start) < limit; i++ {
		rs, n := time.Now(), len(r.reads.samples)
		for p := 0; p < r.passesPerRound(); p++ {
			if err := r.pass(ctx, true); err != nil {
				return 0, err
			}
		}
		r.reads.rounds = append(r.reads.rounds, round{statements: len(r.reads.samples) - n, d: time.Since(rs)})
	}
	return time.Since(start), nil
}

// windowCap bounds a window at this multiple of its nominal length, which
// keeps a whole acceptance pass (4 + 22 × 4 runs) inside its hour on a
// machine running up to half again slower than the nominal rounds assume.
const windowCap = 1.5

// timedFactory wraps the Hive adapter factory so every shipped query is a
// span in the trace (fed.Adapter.Query as seen from the engine).
func (r *run) timedFactory(f fed.Factory) fed.Factory {
	return func(config, credentials map[string]string) (fed.Adapter, error) {
		a, err := f(config, credentials)
		if err != nil {
			return nil, err
		}
		return &timedAdapter{Adapter: a, r: r}, nil
	}
}

// timedAdapter records a span around each Query of the adapter it wraps.
type timedAdapter struct {
	fed.Adapter
	r *run
}

// Query forwards to the wrapped adapter.
func (a *timedAdapter) Query(sql string, opts fed.QueryOptions) (*fed.QueryResult, error) {
	tr := a.r.tr.Load()
	if tr == nil {
		return a.Adapter.Query(sql, opts)
	}
	id := tr.newID()
	start := time.Now()
	res, err := a.Adapter.Query(sql, opts)
	tr.add(span{id: id, parent: a.r.curExec.Load(), stmt: a.r.curStmt.Load(), name: spanRemote,
		track: trackReader, start: start, end: time.Now()})
	return res, err
}

// execute runs the whole workload: generate, set up, check the oracle,
// warm up, measure, verify. The returned report holds end-to-end metrics
// (untraced) or per-layer metrics (traced).
func execute(ctx context.Context, sp spec, seed int64, seconds int, traced bool, scratch string) (*report, error) {
	r := &run{spec: sp, seed: seed, width: runtime.NumCPU(), rng: rand.New(rand.NewSource(seed))}
	root, err := os.MkdirTemp(scratch, "run-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	r.root = root
	defer func() { _ = os.RemoveAll(root) }()

	r.data = tpch.Generate(sp.sf, seed)
	switch {
	case sp.fed:
		r.groups = federatedStatements()
	case sp.durable:
		r.groups = hybridStatements(r.data, r.rng)
		r.writer = newWriter(r, seed)
	default:
		r.groups = olapStatements()
	}
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if r.sys != nil {
			_ = r.sys.close()
		}
	}()
	if err := r.oracle(ctx); err != nil {
		return nil, err
	}
	if r.writer != nil {
		if err := r.writer.countLoaded(ctx); err != nil {
			return nil, err
		}
	}
	r.data = nil // the engine holds the stored data from here on

	// Warm-up: one checked pass, unrecorded.
	if err := r.pass(ctx, false); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc

	rep := &report{spec: sp, seed: seed, traced: traced}
	stopWriter := func() error { return nil }
	if r.writer != nil {
		stopWriter = r.writer.start(ctx)
		defer func() { _ = stopWriter() }() // on error paths; a no-op after the explicit stop
	}
	win := time.Duration(seconds) * time.Second
	if !traced {
		before := r.snap(true)
		elapsed, err := r.window(ctx, win)
		if err == nil {
			err = stopWriter()
		}
		if err != nil {
			return nil, err
		}
		after := r.snap(true)
		r.reads.windowLength = elapsed
		if err := r.verifyDurable(ctx); err != nil {
			return nil, err
		}
		rep.endToEnd(r, heap, after.sub(before))
	} else {
		// Untraced first half, traced second half: the ratio of the two
		// halves' throughput is the tracing overhead.
		untraced, err := r.window(ctx, win/2)
		if err != nil {
			return nil, err
		}
		plainQPS := ratio(float64(len(r.reads.samples)), untraced.Seconds())
		r.reads = readStats{}
		tr := newTracer()
		if r.writer != nil {
			r.writer.markTraced(time.Now())
		}
		before := r.snap(true)
		r.tr.Store(tr)
		elapsed, err := r.window(ctx, win/2)
		r.tr.Store(nil)
		after := r.snap(true)
		if err == nil {
			err = stopWriter()
		}
		if err != nil {
			return nil, err
		}
		r.reads.windowLength = elapsed
		if err := r.verifyDurable(ctx); err != nil {
			return nil, err
		}
		rep.perLayer(r, tr, after.sub(before), plainQPS)
	}
	rep.attempted = r.attempted.Load()
	rep.failed = r.failed.Load()
	rep.errors = r.errors()
	return rep, nil
}

// setupMedian is the median set-up time in seconds.
func (r *run) setupMedian() float64 {
	v := make([]float64, len(r.setupTimes))
	for i, d := range r.setupTimes {
		v[i] = d.Seconds()
	}
	sort.Float64s(v)
	return median(v)
}
