package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"hana/internal/sqlparse"
	"hana/internal/value"
)

// writer is the htap-hybrid open-loop writer: new-order transactions at a
// fixed offered rate, each timed from its due time, plus the aging
// schedule. Its fields are written by the writer goroutine only and read
// after stop returns.
type writer struct {
	r   *run
	rng *rand.Rand

	loadedLineitem, loadedOrders int64

	tracedFrom time.Time // writes due before this are not in the traced window
	mu         sync.Mutex
	// hana:guardedby mu
	tracedSet bool

	acked   int64    // acknowledged new-order commits
	samples []sample // commit latency from due time
	late    []time.Duration
	dueAt   []time.Time

	// Traced window only.
	userBytes  int64 // encoded bytes of the rows the writer inserted
	commits    int64 // commits the writer issued (new-order, flag, aging)
	agingRows  int64
	agingSteps int64
}

func newWriter(r *run, seed int64) *writer {
	return &writer{r: r, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

// countLoaded records the row counts the final check starts from.
func (w *writer) countLoaded(ctx context.Context) error {
	var err error
	if w.loadedLineitem, err = w.r.count(ctx, "lineitem"); err != nil {
		return err
	}
	w.loadedOrders, err = w.r.count(ctx, "orders")
	return err
}

// markTraced sets the start of the traced window; the writer records spans
// for transactions due from then on.
func (w *writer) markTraced(t time.Time) {
	w.mu.Lock()
	w.tracedFrom, w.tracedSet = t, true
	w.mu.Unlock()
}

// start launches the writer goroutine and returns the function that stops
// it and waits for it to exit; calling that function again returns the
// same result.
func (w *writer) start(ctx context.Context) func() error {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- w.loop(ctx, stop) }()
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() {
			close(stop)
			err = <-done
		})
		return err
	}
}

// loop runs transactions on their schedule until stopped.
func (w *writer) loop(ctx context.Context, stop <-chan struct{}) error {
	interval := time.Second / writeRate
	start := time.Now()
	nextAging := start.Add(agingEvery)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		w.newOrder(ctx, i, due)
		if !time.Now().Before(nextAging) {
			w.age(ctx)
			nextAging = nextAging.Add(agingEvery)
		}
	}
}

// tracer returns the tracer for an operation due at t, or nil.
func (w *writer) tracer(t time.Time) *tracer {
	tr := w.r.tr.Load()
	if tr == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.tracedSet || t.Before(w.tracedFrom) {
		return nil
	}
	return tr
}

// newOrder runs one transaction: 1 orders row and linesPerOrder lineitem
// rows, all dated from insertFrom on, through Begin /
// ExecuteStmtTxContext / CommitTxContext.
func (w *writer) newOrder(ctx context.Context, i int, due time.Time) {
	e := w.r.sys.e
	began := time.Now()
	tr := w.tracer(due)
	stmtID := w.r.stmtSeq.Add(1)
	var rootID int64
	if tr != nil {
		rootID = tr.newID()
	}
	spanOf := func(name string, start time.Time) {
		if tr != nil {
			tr.add(span{id: tr.newID(), parent: rootID, stmt: stmtID, name: name, track: trackWriter, start: start, end: time.Now()})
		}
	}
	w.r.attempted.Add(1)
	key := int64(newOrderKeyBase + i)
	rows := w.orderRows(key)
	tx := e.Begin()
	for _, ins := range rows {
		t0 := time.Now()
		st, err := sqlparse.Parse(ins.sql)
		spanOf(spanParse, t0)
		if err != nil {
			w.r.fail("new-order %d parse: %v", key, err)
			_ = e.Rollback(tx)
			return
		}
		t1 := time.Now()
		_, err = e.ExecuteStmtTxContext(ctx, tx, st)
		spanOf(spanExecTx, t1)
		if err != nil {
			w.r.fail("new-order %d: %v", key, err)
			_ = e.Rollback(tx)
			return
		}
	}
	t2 := time.Now()
	err := e.CommitTxContext(ctx, tx)
	spanOf(spanCommit, t2)
	if tr != nil {
		w.commits++
	}
	if err != nil {
		w.r.fail("new-order %d commit: %v", key, err)
		return
	}
	end := time.Now()
	w.acked++
	w.samples = append(w.samples, sample{name: "new-order", lat: end.Sub(due)})
	w.late = append(w.late, began.Sub(due))
	w.dueAt = append(w.dueAt, due)
	if tr != nil {
		for _, ins := range rows {
			w.userBytes += int64(len(value.AppendRow(nil, ins.row)))
		}
		tr.add(span{id: rootID, stmt: stmtID, name: spanWrite, track: trackWriter, start: began, end: end})
	}
}

// insert is one generated row and the statement that inserts it.
type insert struct {
	row value.Row
	sql string
}

// orderRows generates a new order and its lines from the writer's seed.
func (w *writer) orderRows(key int64) []insert {
	from, _ := value.ParseDate(insertFrom)
	date := from.I + int64(w.rng.Intn(300))
	day := func(off int) value.Value { return value.NewDate(date + int64(off)) }
	order := value.Row{
		value.NewInt(key), value.NewInt(int64(1 + w.rng.Intn(1000))), value.NewString("O"),
		value.NewDouble(float64(w.rng.Intn(50_000_000)) / 100), day(0),
		value.NewString("3-MEDIUM"), value.NewString("Clerk#000000001"), value.NewInt(0),
		value.NewString("perfbench new order"), value.NewBool(false),
	}
	out := []insert{{row: order, sql: insertSQL("orders", order)}}
	for l := 1; l <= linesPerOrder; l++ {
		qty := float64(1 + w.rng.Intn(50))
		line := value.Row{
			value.NewInt(key), value.NewInt(int64(1 + w.rng.Intn(1000))), value.NewInt(int64(1 + w.rng.Intn(50))),
			value.NewInt(int64(l)), value.NewDouble(qty), value.NewDouble(qty * float64(900+w.rng.Intn(1100))),
			value.NewDouble(float64(w.rng.Intn(11)) / 100), value.NewDouble(float64(w.rng.Intn(9)) / 100),
			value.NewString("N"), value.NewString("O"), day(2 + l), day(30 + l), day(5 + l),
			value.NewString("NONE"), value.NewString("MAIL"), value.NewString("perfbench line"), value.NewBool(false),
		}
		out = append(out, insert{row: line, sql: insertSQL("lineitem", line)})
	}
	return out
}

// insertSQL renders an INSERT statement for row.
func insertSQL(table string, row value.Row) string {
	lits := make([]string, len(row))
	for i, v := range row {
		if v.K == value.KindDouble {
			s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			lits[i] = s
			continue
		}
		lits[i] = v.SQLLiteral()
	}
	return "INSERT INTO " + table + " VALUES (" + strings.Join(lits, ", ") + ")"
}

// age flags every inserted row not yet aged and runs the aging pass on
// both hybrid tables, as one scheduled step of the writer.
func (w *writer) age(ctx context.Context) {
	e := w.r.sys.e
	began := time.Now()
	tr := w.tracer(began)
	stmtID := w.r.stmtSeq.Add(1)
	var rootID int64
	if tr != nil {
		rootID = tr.newID()
	}
	spanOf := func(name string, start time.Time) {
		if tr != nil {
			tr.add(span{id: tr.newID(), parent: rootID, stmt: stmtID, name: name, track: trackWriter, start: start, end: time.Now()})
		}
	}
	for _, t := range []struct{ table, col string }{{"lineitem", "l_shipdate"}, {"orders", "o_orderdate"}} {
		w.r.attempted.Add(2)
		flag := fmt.Sprintf("UPDATE %s SET aged = TRUE WHERE %s >= DATE '%s' AND aged = FALSE", t.table, t.col, insertFrom)
		t0 := time.Now()
		st, err := sqlparse.Parse(flag)
		spanOf(spanParse, t0)
		if err == nil {
			t1 := time.Now()
			_, err = e.ExecuteStmtContext(ctx, st)
			spanOf(spanExec, t1)
		}
		if err != nil {
			w.r.fail("flag %s: %v", t.table, err)
			w.r.failed.Add(1) // the aging step below is skipped
			continue
		}
		t2 := time.Now()
		moved, err := e.RunAgingContext(ctx, t.table)
		spanOf(spanAging, t2)
		if err != nil {
			w.r.fail("aging %s: %v", t.table, err)
			continue
		}
		if tr != nil {
			w.commits += 2 // the flagging UPDATE and the aging move
			w.agingRows += moved
		}
	}
	if tr != nil {
		w.agingSteps++
		tr.add(span{id: rootID, stmt: stmtID, name: spanAgingStep, track: trackWriter, start: began, end: time.Now()})
	}
}

// tracedSamples returns the writer's samples due inside the traced window
// and their start lateness.
func (w *writer) tracedSamples() ([]sample, []time.Duration) {
	w.mu.Lock()
	from := w.tracedFrom
	w.mu.Unlock()
	var s []sample
	var late []time.Duration
	for i, d := range w.dueAt {
		if !d.Before(from) {
			s = append(s, w.samples[i])
			late = append(late, w.late[i])
		}
	}
	return s, late
}

// count runs SELECT COUNT(*) on a table.
func (r *run) count(ctx context.Context, table string) (int64, error) {
	res, err := r.sys.e.ExecuteContext(ctx, "SELECT COUNT(*) FROM "+table)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int(), nil
}

// checkCounts verifies that every acknowledged new order is visible and
// nothing else was added or lost; each table check is one checked
// operation.
func (r *run) checkCounts(ctx context.Context, when string) {
	w := r.writer
	for _, c := range []struct {
		table string
		want  int64
	}{
		{"lineitem", w.loadedLineitem + linesPerOrder*w.acked},
		{"orders", w.loadedOrders + w.acked},
	} {
		r.attempted.Add(1)
		got, err := r.count(ctx, c.table)
		switch {
		case err != nil:
			r.fail("%s count %s: %v", when, c.table, err)
		case got != c.want:
			r.fail("%s: %s has %d rows, want %d (loaded + acknowledged)", when, c.table, got, c.want)
		}
	}
}

// verifyDurable runs the htap-hybrid end checks: counts on the live
// engine, then Close and engine.Open on the same data dir (crash-free
// restart through recovery) and the counts again.
func (r *run) verifyDurable(ctx context.Context) error {
	if r.writer == nil {
		return nil
	}
	r.checkCounts(ctx, "after run")
	if err := r.sys.e.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	start := time.Now()
	e, err := openHybrid(r.sys.dir, r.width)
	r.recovery = time.Since(start)
	if err != nil {
		r.sys.e = nil
		return fmt.Errorf("reopen: %w", err)
	}
	r.sys.e = e
	r.checkCounts(ctx, "after reopen")
	return nil
}
