package main

import (
	"runtime"
	"runtime/metrics"

	"hana/internal/obs"
)

// Counter indexes: every counter a layer already exports that the
// benchmark reads around its calls.
const (
	cRemoteQueries = iota // fed.remote_queries
	cRemoteCacheHits
	cRemoteRows
	cSemijoins
	cRemoteScans
	cPlannerFallbacks
	cDistQueries
	cDistFragments
	cDistRetries
	cDistFailovers
	cDistRowsMerged
	cChunksRead // diskstore Stats
	cChunksSkipped
	cChunkCacheHits
	cBytesRead
	cWALBytes // txn.Log Stats
	cWALSyncs
	cWALAppends
	cMRJobs // mapreduce.Engine
	cMRInputRecords
	// Read only at window boundaries (snap(true)).
	cMRJobUs
	cMRJobCount
	cGCCycles
	cAllocBytes
	cGCPauseNs
	nCounters
)

var counterNames = [nCounters]string{
	"fed.remote_queries", "fed.remote_cache_hits", "fed.remote_rows_fetched", "fed.semijoins_chosen",
	"fed.remote_scans_chosen", "fed.planner_fallbacks",
	"dist.queries", "dist.fragments", "dist.retries", "dist.failovers", "dist.rows_merged",
	"diskstore.chunks_read", "diskstore.chunks_skipped", "diskstore.cache_hits", "diskstore.bytes_read",
	"txn.wal_bytes", "txn.wal_syncs", "txn.wal_appends",
	"mapreduce.jobs", "mapreduce.map_input_records",
	"mapreduce.job_us_sum", "mapreduce.job_us_count",
	"runtime.gc_cycles", "runtime.alloc_bytes", "runtime.gc_pause_ns",
}

// counters is a point-in-time reading of every layer counter, plus the
// runtime's CPU accounting.
type counters struct {
	v               [nCounters]int64
	gcCPU, totalCPU float64 // seconds, from runtime/metrics
}

func (c counters) sub(o counters) counters {
	for i := range c.v {
		c.v[i] -= o.v[i]
	}
	c.gcCPU -= o.gcCPU
	c.totalCPU -= o.totalCPU
	return c
}

// args renders the non-zero deltas as span arguments.
func (c counters) args() map[string]int64 {
	out := map[string]int64{}
	for i, v := range c.v {
		if v != 0 {
			out[counterNames[i]] = v
		}
	}
	return out
}

// runtimeSamples are the runtime/metrics read at window boundaries.
var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snap reads the counters. Per-span readings (withRuntime false) take only
// atomic loads and the WAL stats lock; window boundaries also read the
// runtime and the process-wide map-reduce job histogram.
func (r *run) snap(withRuntime bool) counters {
	var c counters
	e := r.sys.e
	m := &e.Metrics
	c.v[cRemoteQueries] = m.RemoteQueries.Load()
	c.v[cRemoteCacheHits] = m.RemoteCacheHits.Load()
	c.v[cRemoteRows] = m.RemoteRowsFetched.Load()
	c.v[cSemijoins] = m.SemiJoinsChosen.Load()
	c.v[cRemoteScans] = m.RemoteScansChosen.Load()
	c.v[cPlannerFallbacks] = m.PlannerFallbacks.Load()
	c.v[cDistQueries] = m.DistQueries.Load()
	c.v[cDistFragments] = m.DistFragments.Load()
	c.v[cDistRetries] = m.DistRetries.Load()
	c.v[cDistFailovers] = m.DistFailovers.Load()
	c.v[cDistRowsMerged] = m.DistRowsMerged.Load()
	// Only the hybrid workload has an extended store; asking any other
	// engine for it would create one.
	if r.spec.durable {
		if ext, err := e.ExtendedStore(); err == nil {
			c.v[cChunksRead] = ext.Stats.ChunksRead.Load()
			c.v[cChunksSkipped] = ext.Stats.ChunksSkipped.Load()
			c.v[cChunkCacheHits] = ext.Stats.CacheHits.Load()
			c.v[cBytesRead] = ext.Stats.BytesRead.Load()
		}
	}
	if l := e.WAL(); l != nil {
		ws := l.Stats()
		c.v[cWALBytes], c.v[cWALSyncs], c.v[cWALAppends] = ws.Bytes, ws.Syncs, ws.Appends
	}
	if r.sys.hive != nil {
		c.v[cMRJobs] = r.sys.hive.MR.JobsRun.Load()
		c.v[cMRInputRecords] = r.sys.hive.MR.Counters.MapInputRecords.Load()
	}
	if !withRuntime {
		return c
	}
	if h, ok := obs.Default.Snapshot().Histogram("mapreduce.job_us"); ok {
		c.v[cMRJobUs], c.v[cMRJobCount] = h.Sum, h.Count
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.v[cGCCycles] = int64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.v[cAllocBytes] = int64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = s[3].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.v[cGCPauseNs] = int64(ms.PauseTotalNs)
	return c
}
