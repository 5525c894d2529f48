package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per public call the benchmark makes into a layer, plus
// the root span of each client operation.
const (
	spanRead      = "client.read"    // one read statement: parse + execute
	spanWrite     = "client.write"   // one new-order transaction
	spanAgingStep = "client.aging"   // flag + age both hybrid tables
	spanParse     = "sqlparse.Parse" // statement parse
	spanExec      = "engine.ExecuteStmtContext"
	spanExecTx    = "engine.ExecuteStmtTxContext"
	spanCommit    = "engine.CommitTxContext"
	spanAging     = "engine.RunAgingContext"
	spanRemote    = "fed.Adapter.Query" // wrapped adapter call (Hive side)
	spanLocalOnly = "engine.ExecuteContext(WithLocalOnly)"
)

// Client tracks (Chrome trace "threads").
const (
	trackReader = 1
	trackWriter = 2
)

// span is one timed call. Spans of one client operation share stmt; the
// root span of an operation has parent 0.
type span struct {
	id, parent int64
	stmt       int64
	name       string
	track      int
	start, end time.Time
	args       map[string]int64 // counter deltas over the span (root spans)
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the writer, the reader and engine goroutines calling the
// wrapped adapter all record into it.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // hana:guardedby mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id before the call, so children can name it as
// their parent while it is still open.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Time }

// selfTimes returns every span's duration minus the part of its interval
// that its children cover (children may overlap each other when the engine
// runs remote calls concurrently, so the union is subtracted).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		d := s.end.Sub(s.start)
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo.Before(iv[j].lo) })
		var covered time.Duration
		var curLo, curHi time.Time
		open := false
		for _, c := range iv {
			lo, hi := c.lo, c.hi
			if lo.Before(s.start) {
				lo = s.start
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if !hi.After(lo) {
				continue
			}
			if open && !lo.After(curHi) {
				if hi.After(curHi) {
					curHi = hi
				}
				continue
			}
			if open {
				covered += curHi.Sub(curLo)
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi.Sub(curLo)
		}
		out[s.id] = d - covered
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name           string
	count          int
	total, self    time.Duration
	meanSelfMS     float64
	shareOfClients float64 // self ÷ summed root-span time
}

// layerTable aggregates spans by name. The base of every share is the
// summed duration of the root (client) spans, printed with the table.
func layerTable(spans []span) ([]layerRow, time.Duration) {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	var rootTotal time.Duration
	for _, s := range spans {
		r := by[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			by[s.name] = r
		}
		r.count++
		r.total += s.end.Sub(s.start)
		r.self += self[s.id]
		if s.parent == 0 {
			rootTotal += s.end.Sub(s.start)
		}
	}
	rows := make([]layerRow, 0, len(by))
	for _, r := range by {
		r.meanSelfMS = ratio(durMS(r.self), float64(r.count))
		r.shareOfClients = ratio(float64(r.self), float64(rootTotal))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, rootTotal
}

// writeLayerTable prints the per-layer self-time table.
func writeLayerTable(w io.Writer, workload string, spans []span) {
	rows, base := layerTable(spans)
	fmt.Fprintf(w, "layer self time — %s (share base: %.1f ms summed client-span time, %d spans)\n",
		workload, durMS(base), len(spans))
	fmt.Fprintf(w, "  %-40s %8s %12s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self_ms/call", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-40s %8d %12.2f %12.2f %12.4f %7.2f%%\n",
			r.name, r.count, durMS(r.total), durMS(r.self), r.meanSelfMS, 100*r.shareOfClients)
	}
}

// chromeEvent is one Chrome trace-event ("X" complete events plus "M"
// thread-name metadata); the file opens in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON.
func writeChromeTrace(path string, t *tracer, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := []chromeEvent{
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: trackReader, Args: map[string]any{"name": "reader"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: trackWriter, Args: map[string]any{"name": "writer"}},
	}
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "stmt": s.stmt}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Pid: 1, Tid: s.track, Args: args,
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
