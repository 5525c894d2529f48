package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit, the number of samples
// behind it and, for ratios and tails, its base.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report is the outcome of one run.
type report struct {
	spec       spec
	seed       int64
	traced     bool
	metrics    []metric
	attempted  int64
	failed     int64
	errors     []string
	layers     []span // traced runs: every recorded span
	statements string // untraced runs: per-statement median latency (ms)
	tracer     *tracer
}

func (rep *report) add(name string, v float64, unit string, n int, note string) {
	rep.metrics = append(rep.metrics, metric{name: name, value: v, unit: unit, n: n, note: note})
}

const mib = 1 << 20

// endToEnd fills the user-visible metrics of an untraced run.
func (rep *report) endToEnd(r *run, heapBytes uint64, d counters) {
	s := r.reads.samples
	ms := sortedMS(s)
	n := len(s)
	rep.add("setup_s", r.setupMedian(), "s", len(r.setupTimes), fmt.Sprintf("median of %d set-ups", len(r.setupTimes)))
	tv, pct := tail(ms)
	rep.add("query_tail_ms", tv, "ms", n, fmt.Sprintf("p%.1f: the highest percentile with %d samples beyond it", pct, tailBeyond))
	gm, distinct := geomeanOfMedians(s)
	rep.add("query_geomean_ms", gm, "ms", n, fmt.Sprintf("geometric mean of %d statements' medians", distinct))
	tput := make([]float64, len(r.reads.rounds))
	for i, rd := range r.reads.rounds {
		tput[i] = ratio(float64(rd.statements), rd.d.Seconds())
	}
	sort.Float64s(tput)
	rep.add("queries_per_s", median(tput), "1/s", n,
		fmt.Sprintf("median over %d rounds; %d statements in %.2f s", len(tput), n, r.reads.windowLength.Seconds()))
	rep.add("heap_mb", float64(heapBytes)/mib, "MiB", 1, "live heap after set-up, warm-up and GC")
	rep.add("alloc_mb_per_query", ratio(float64(d.v[cAllocBytes])/mib, float64(n)), "MiB/query", n,
		fmt.Sprintf("%.1f MiB allocated (whole process) / %d read statements", float64(d.v[cAllocBytes])/mib, n))
	rep.statements = statementMedians(s)
}

// statementMedians renders each statement's median latency, for the
// human-readable output.
func statementMedians(samples []sample) string {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.name] = append(by[s.name], durMS(s.lat))
	}
	var b strings.Builder
	for _, k := range sortedKeys(by) {
		v := by[k]
		sort.Float64s(v)
		fmt.Fprintf(&b, " %s=%.1f(n=%d)", k, median(v), len(v))
	}
	return b.String()
}

// perLayer fills the per-layer metrics of a traced run from its spans and
// counter deltas over the traced window.
func (rep *report) perLayer(r *run, tr *tracer, d counters, plainQPS float64) {
	spans := tr.snapshot()
	rep.layers, rep.tracer = spans, tr
	self := selfTimes(spans)
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
	}
	meanMS := func(name string, useSelf bool) (float64, int) {
		ss := byName[name]
		var sum time.Duration
		for _, s := range ss {
			if useSelf {
				sum += self[s.id]
			} else {
				sum += s.end.Sub(s.start)
			}
		}
		return ratio(durMS(sum), float64(len(ss))), len(ss)
	}
	reads := float64(len(r.reads.samples))
	nr := len(r.reads.samples)
	per := func(v int64) float64 { return ratio(float64(v), reads) }
	base := fmt.Sprintf("per read statement (%d)", nr)

	parseMS, nParse := meanMS(spanParse, false)
	rep.add("sqlparse.parse_us", 1000*parseMS, "us", nParse, "mean sqlparse.Parse span, reads and writes")
	var execSelf time.Duration
	var nExec int
	for _, s := range byName[spanExec] {
		if s.track == trackReader {
			execSelf += self[s.id]
			nExec++
		}
	}
	rep.add("engine.exec_ms", ratio(durMS(execSelf), float64(nExec)), "ms", nExec,
		"mean ExecuteStmtContext self time of reads (remote calls subtracted)")
	rep.add("engine.rows_examined_per_row_out", ratio(float64(r.reads.rowsScanned), float64(r.reads.rowsOut)), "rows/row", nr,
		fmt.Sprintf("%d rows scanned / %d rows returned", r.reads.rowsScanned, r.reads.rowsOut))
	rep.add("engine.planner_fallbacks", float64(d.v[cPlannerFallbacks]), "count", nr, "in the traced window")
	rep.add("exec.morsels_per_query", per(r.reads.morsels), "morsels/query", nr, base)
	rep.add("exec.width_ratio", ratio(ratio(float64(r.reads.workers), reads), float64(r.width)), "ratio", nr,
		fmt.Sprintf("mean ExecStats.Workers / pool size %d", r.width))

	exch := 0.0
	if r.reads.exchangeN > 0 {
		exch = durMS(r.reads.exchangeSum) / float64(r.reads.exchangeN)
	}
	rep.add("dist.exchange_ms", exch, "ms", int(r.reads.exchangeN), "distributed minus WithLocalOnly execution, per statement")
	rep.add("dist.distributed_ratio", per(d.v[cDistQueries]), "ratio", nr, fmt.Sprintf("%d fan-outs / %d statements", d.v[cDistQueries], nr))
	rep.add("dist.fragments_per_query", per(d.v[cDistFragments]), "fragments/query", nr, base)
	rep.add("dist.rows_merged_per_query", per(d.v[cDistRowsMerged]), "rows/query", nr, base)
	rep.add("dist.retries", float64(d.v[cDistRetries]), "count", nr, "in the traced window")
	rep.add("dist.failovers", float64(d.v[cDistFailovers]), "count", nr, "in the traced window")
	skew, skewNote := r.shardSkew()
	rep.add("dist.shard_skew", skew, "ratio", r.spec.shards, skewNote)

	remoteMS, nRemote := meanMS(spanRemote, false)
	rep.add("fed.remote_call_ms", remoteMS, "ms", nRemote, "mean wrapped fed.Adapter.Query span")
	rep.add("fed.remote_calls_per_query", ratio(float64(nRemote), reads), "calls/query", nr, base)
	rep.add("fed.remote_rows_per_query", per(d.v[cRemoteRows]), "rows/query", nr, base)
	rep.add("fed.cache_hit_ratio", ratio(float64(d.v[cRemoteCacheHits]), float64(r.reads.hinted)), "ratio", int(r.reads.hinted),
		fmt.Sprintf("%d remote cache hits / %d hinted statements", d.v[cRemoteCacheHits], r.reads.hinted))
	rep.add("fed.semijoins_chosen", float64(d.v[cSemijoins]), "count", nr, "in the traced window")
	rep.add("fed.remote_scans_chosen", float64(d.v[cRemoteScans]), "count", nr, "in the traced window")
	rep.add("mapreduce.jobs_per_query", per(d.v[cMRJobs]), "jobs/query", nr, base)
	rep.add("mapreduce.job_ms", ratio(float64(d.v[cMRJobUs])/1000, float64(d.v[cMRJobCount])), "ms", int(d.v[cMRJobCount]),
		"mean mapreduce.job_us histogram entry")
	rep.add("mapreduce.map_input_records_per_query", per(d.v[cMRInputRecords]), "records/query", nr, base)

	visits := d.v[cChunksRead] + d.v[cChunksSkipped] + d.v[cChunkCacheHits]
	rep.add("diskstore.chunks_read_per_query", per(d.v[cChunksRead]), "chunks/query", nr, base+", whole process")
	rep.add("diskstore.chunk_skip_ratio", ratio(float64(d.v[cChunksSkipped]), float64(visits)), "ratio", int(visits),
		fmt.Sprintf("%d zone-map skips / %d chunk visits", d.v[cChunksSkipped], visits))
	rep.add("diskstore.cache_hit_ratio", ratio(float64(d.v[cChunkCacheHits]), float64(d.v[cChunkCacheHits]+d.v[cChunksRead])), "ratio",
		int(d.v[cChunkCacheHits]+d.v[cChunksRead]), fmt.Sprintf("%d cache hits / %d chunk loads", d.v[cChunkCacheHits], d.v[cChunkCacheHits]+d.v[cChunksRead]))
	rep.add("diskstore.bytes_read_per_query", per(d.v[cBytesRead]), "bytes/query", nr, base+", whole process")

	var commits, userBytes, agingRows, steps int64
	var wsamples []sample
	var late []time.Duration
	if w := r.writer; w != nil {
		commits, userBytes, agingRows, steps = w.commits, w.userBytes, w.agingRows, w.agingSteps
		wsamples, late = w.tracedSamples()
	}
	commitMS, nCommit := meanMS(spanCommit, false)
	rep.add("txn.commit_ms", commitMS, "ms", nCommit, "mean CommitTxContext span of new-order transactions")
	rep.add("txn.wal_bytes_per_commit", ratio(float64(d.v[cWALBytes]), float64(commits)), "bytes/commit", int(commits),
		fmt.Sprintf("%d WAL bytes / %d commits (new-order, flag and aging)", d.v[cWALBytes], commits))
	rep.add("txn.wal_syncs_per_commit", ratio(float64(d.v[cWALSyncs]), float64(commits)), "syncs/commit", int(commits),
		fmt.Sprintf("%d fsyncs / %d commits", d.v[cWALSyncs], commits))
	rep.add("txn.wal_bytes_per_user_byte", ratio(float64(d.v[cWALBytes]), float64(userBytes)), "bytes/byte", int(commits),
		fmt.Sprintf("%d WAL bytes / %d encoded bytes inserted", d.v[cWALBytes], userBytes))
	rep.add("txn.recovery_s", r.recovery.Seconds(), "s", boolInt(r.writer != nil), "Close then engine.Open on the data dir after the run")
	agingMS, nAging := meanMS(spanAging, false)
	rep.add("engine.aging_ms", agingMS, "ms", nAging, "mean RunAgingContext span")
	rep.add("engine.aging_rows", float64(agingRows), "rows", int(steps), fmt.Sprintf("rows moved by %d aging steps", steps))

	gcCycles := d.v[cGCCycles]
	rep.add("runtime.gc_cpu_fraction", ratio(d.gcCPU, d.totalCPU), "ratio", int(gcCycles),
		fmt.Sprintf("%.3f GC CPU-s / %.3f available CPU-s", d.gcCPU, d.totalCPU))
	rep.add("runtime.gc_cycles_per_query", per(gcCycles), "cycles/query", nr, base)
	rep.add("runtime.gc_pause_ms", float64(d.v[cGCPauseNs])/1e6, "ms", int(gcCycles), "total stop-the-world pause in the traced window")

	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = durMS(l)
	}
	sort.Float64s(lateMS)
	meanLate := 0.0
	for _, l := range lateMS {
		meanLate += l
	}
	rep.add("load.writer_late_ms", ratio(meanLate, float64(len(lateMS))), "ms", len(lateMS), "mean start delay of writes behind their due time")
	rep.add("load.query_p50_ms", median(sortedMS(r.reads.samples)), "ms", nr,
		"median read-statement latency of the traced half (demoted from end-to-end: see README)")
	wms := sortedMS(wsamples)
	rep.add("load.write_p50_ms", median(wms), "ms", len(wms),
		fmt.Sprintf("new-order latency from due time at %d txn/s offered", writeRate))
	wt, wpct := tail(wms)
	rep.add("load.write_tail_ms", wt, "ms", len(wms), fmt.Sprintf("p%.1f: the highest percentile with %d samples beyond it", wpct, tailBeyond))

	// The paired local-only runs are measurement, not tracing: their time
	// is taken out of the traced half.
	tracedQPS := ratio(reads, (r.reads.windowLength - r.reads.localOnly).Seconds())
	rep.add("trace.overhead_ratio", ratio(plainQPS, tracedQPS), "ratio", nr,
		fmt.Sprintf("untraced %.3f / traced %.3f queries_per_s (first and second half of the window, paired local-only runs excluded)", plainQPS, tracedQPS))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// shardSkew is max/mean of the per-worker lineitem row counts.
func (r *run) shardSkew() (float64, string) {
	if r.spec.shards < 2 {
		return 0, "single node"
	}
	counts, err := r.sys.e.DistShardCounts("lineitem")
	if err != nil || len(counts) == 0 {
		return 0, fmt.Sprintf("no shard counts: %v", err)
	}
	maxN, sum := 0, 0
	for _, n := range counts {
		sum += n
		if n > maxN {
			maxN = n
		}
	}
	mean := float64(sum) / float64(len(counts))
	return ratio(float64(maxN), mean), fmt.Sprintf("max %d / mean %.1f lineitem rows over %d workers", maxN, mean, len(counts))
}

// correct reports whether every checked operation succeeded.
func (rep *report) correct() bool { return rep.failed == 0 && rep.attempted > 0 }

// print writes the human-readable lines: every metric by name, value,
// unit and sample count, and the failures.
func (rep *report) print(w io.Writer) {
	kind := "end-to-end"
	if rep.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s metrics — %s, seed %d\n", kind, rep.spec.name, rep.seed)
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "  %-40s %14.4f %-14s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	fmt.Fprintf(w, "  %-40s %14.4f %-14s n=%-6d %d failed / %d attempted (oracle, durability and result checks)\n",
		"fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted, rep.failed, rep.attempted)
	if rep.statements != "" {
		fmt.Fprintf(w, "  statement medians (ms):%s\n", rep.statements)
	}
	for _, e := range rep.errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// jsonMetric is one entry of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (rep *report) line(prefix string) resultLine {
	out := resultLine{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[prefix+m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return out
}

// writeLine prints a result line as one JSON object.
func writeLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
