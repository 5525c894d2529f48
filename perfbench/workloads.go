package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hana/internal/bench"
	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/tpch"
	"hana/internal/txn"
	"hana/internal/value"
)

// spec is one workload's fixed configuration. Everything that varies
// between runs comes from the seed.
type spec struct {
	name    string
	sf      float64 // TPC-H scale factor
	shards  int     // dist.Topology shards (0 = single node)
	durable bool    // engine.Open on a data dir, WAL SyncCommit, hybrid tables, writer
	fed     bool    // SDA deployment: Hive + map-reduce over simulated HDFS
	// round is the nominal length of one closed-loop round on a 2-core
	// machine. A window of s seconds runs round(s / round) rounds, so the
	// sample count, and with it which statement the median and the tail
	// fall on, does not depend on how fast one run happens to go.
	round time.Duration
}

// specs are the workloads; README.md gives the reason for each.
var specs = []spec{
	// Colstore scans, kernels, aggregation and join do the work; dist,
	// fed, diskstore and txn do none.
	{name: "olap", sf: 0.03, round: 1250 * time.Millisecond},
	// The olap statements; the only addition is the exchange.
	{name: "olap-dist", sf: 0.03, shards: 2, round: 2500 * time.Millisecond},
	// Cold history larger than the chunk cache, beside WAL commits and aging.
	{name: "htap-hybrid", sf: 0.02, durable: true, round: time.Second},
	// SDA through Hive and map-reduce, with the remote cache on a schedule.
	{name: "federated", sf: 0.003, fed: true, round: 3500 * time.Millisecond},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rounds is how many closed-loop rounds a window of d runs.
func (s spec) rounds(d time.Duration) int {
	n := int(math.Round(float64(d) / float64(s.round)))
	if n < 1 {
		n = 1
	}
	return n
}

// walSync names the WAL durability policy the workload runs under.
func (s spec) walSync() string {
	if s.durable {
		return "COMMIT (fsync at decision records), checkpointer off"
	}
	return "none (no WAL)"
}

// Sizing of the htap-hybrid workload.
const (
	// hybridCut splits lineitem (by l_shipdate) and orders (by o_orderdate)
	// into extended-storage history and in-memory recent rows. At SF 0.02
	// about 70% of lineitem is cold: ~360 column-chunks (a scan reads every
	// column), well over the diskstore's 256-entry chunk cache. Cold orders
	// is ~60 column-chunks, which fits.
	hybridCut = "1997-01-01"
	// insertFrom is the first date the writer inserts; every report range
	// ends before it, so report answers stay fixed under writes and aging.
	insertFrom = "1999-01-01"
	// writeRate is the open-loop writer's offered rate (transactions/s).
	writeRate = 20
	// linesPerOrder is the lineitem rows in one new-order transaction.
	linesPerOrder = 4
	// agingEvery is the writer's aging schedule: every interval it flags
	// the rows inserted so far and ages both hybrid tables.
	agingEvery = 5 * time.Second
	// ordersLookups and lineitemLookups are the point lookups (on seeded
	// keys) that join the four reports in the read mix: short statements,
	// where parsing is a visible share. Each table's lookups share one
	// statement name, so query_geomean_ms weighs the six statement
	// templates equally.
	ordersLookups   = 20
	lineitemLookups = 2
	// newOrderKeyBase keeps inserted order keys clear of generated ones.
	newOrderKeyBase = 100_000_000
)

// hintedPerLapse is the federated invalidation schedule: every
// hintedPerLapse-th hinted statement is preceded by CacheInvalidateAll
// (the remote_cache_validity window lapsing). At twice the query count,
// the hinted statements of one pass all materialize and those of the
// next pass all hit the cache, whatever order the seed shuffles them in.
const hintedPerLapse = 24

// stmt is one read statement of a workload's mix and its oracle answer.
type stmt struct {
	name     string
	sql      string
	loose    bool        // compare with looseMatch instead of exactDigest
	hinted   bool        // carries WITH HINT (USE_REMOTE_CACHE)
	want     string      // oracle exactDigest
	wantRows []value.Row // oracle rows in sortLoose order (loose statements)
}

// expect records the oracle's answer.
func (s *stmt) expect(rows []value.Row) {
	if s.loose {
		s.wantRows = sortLoose(rows)
		return
	}
	s.want = exactDigest(rows)
}

// matches checks a result against the oracle's answer.
func (s *stmt) matches(rows []value.Row) bool {
	if s.loose {
		return looseMatch(rows, s.wantRows)
	}
	return exactDigest(rows) == s.want
}

// olapStatements is the olap/olap-dist mix: the 12 Figure-14 queries plus
// the ROADMAP scan/agg/join trio.
func olapStatements() [][]*stmt {
	qs := tpch.Queries()
	var out [][]*stmt
	for _, id := range tpch.QueryIDs() {
		out = append(out, []*stmt{{name: fmt.Sprintf("Q%d", id), sql: qs[id].SQL}})
	}
	for _, w := range bench.DistWorkloads {
		out = append(out, []*stmt{{name: w.Name, sql: w.SQL}})
	}
	return out
}

// federatedStatements pairs each query unhinted with its hinted twin; a
// pass runs the pairs in shuffled order.
func federatedStatements() [][]*stmt {
	qs := tpch.Queries()
	var out [][]*stmt
	for _, id := range tpch.QueryIDs() {
		sql := tpch.UsesLocalPart(qs[id])
		name := fmt.Sprintf("Q%d", id)
		out = append(out, []*stmt{
			{name: name, sql: sql, loose: true},
			{name: name + "/hint", sql: sql + " WITH HINT (USE_REMOTE_CACHE)", loose: true, hinted: true},
		})
	}
	return out
}

// hybridStatements is the htap-hybrid read mix: Q1/Q6/Q12/Q14 reports over
// historical ranges plus point lookups on recent (hot) historical keys,
// all disjoint from the writer's dates.
func hybridStatements(data *tpch.Data, rng *rand.Rand) [][]*stmt {
	qs := tpch.Queries()
	var out [][]*stmt
	for _, id := range []int{1, 6, 12, 14} {
		out = append(out, []*stmt{{name: fmt.Sprintf("Q%d", id), sql: qs[id].SQL, loose: true}})
	}
	cut, _ := value.ParseDate(hybridCut)
	end, _ := value.ParseDate(insertFrom)
	var keys []int64
	for _, r := range data.Tables["orders"] {
		if d := r[4].I; d >= cut.I && d < end.I {
			keys = append(keys, r[0].Int())
		}
	}
	if len(keys) == 0 {
		return out
	}
	for i := 0; i < ordersLookups; i++ {
		out = append(out, []*stmt{{name: "lookup.orders", loose: true, sql: fmt.Sprintf(
			`SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderpriority FROM orders
			WHERE o_orderkey = %d AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s'`,
			keys[rng.Intn(len(keys))], hybridCut, insertFrom)}})
	}
	for i := 0; i < lineitemLookups; i++ {
		out = append(out, []*stmt{{name: "lookup.lineitem", loose: true, sql: fmt.Sprintf(
			`SELECT l_linenumber, l_quantity, l_extendedprice, l_shipmode FROM lineitem
			WHERE l_orderkey = %d AND l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'`,
			keys[rng.Intn(len(keys))], hybridCut, insertFrom)}})
	}
	return out
}

// system is one set-up instance of the system under test.
type system struct {
	e    *engine.Engine
	dir  string
	hive *hive.Server // federated only
	host string       // federated only: the registered Hive host
}

// close releases a system and removes its files.
func (s *system) close() error {
	if s.hive != nil {
		hive.UnregisterServer(s.host)
	}
	var err error
	if s.e != nil {
		err = s.e.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// createTable issues the DDL for a TPC-H table (optionally with an aging
// flag and a hot/cold range split) and bulk-loads and analyzes it.
func createTable(ctx context.Context, e *engine.Engine, name string, schema *value.Schema, rows []value.Row, hybridOn string) error {
	cols := make([]string, 0, schema.Len()+1)
	for _, c := range schema.Cols {
		cols = append(cols, c.Name+" "+c.Kind.String())
	}
	ddl := "CREATE TABLE " + name + " (" + strings.Join(cols, ", ")
	if hybridOn != "" {
		ddl += fmt.Sprintf(`, aged BOOLEAN) PARTITION BY RANGE (%s) (
			PARTITION VALUES < DATE '%s' USING EXTENDED STORAGE, PARTITION OTHERS) WITH AGING ON (aged)`, hybridOn, hybridCut)
		flagged := make([]value.Row, len(rows))
		for i, r := range rows {
			flagged[i] = append(r.Clone(), value.NewBool(false))
		}
		rows = flagged
	} else {
		ddl += ")"
	}
	if _, err := e.ExecuteContext(ctx, ddl); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if err := e.BulkLoad(name, rows); err != nil {
		return fmt.Errorf("load %s: %w", name, err)
	}
	if err := e.Analyze(name); err != nil {
		return fmt.Errorf("analyze %s: %w", name, err)
	}
	return nil
}

// setupLocal builds an all-in-memory engine (optionally sharded) holding
// every TPC-H table.
func setupLocal(ctx context.Context, data *tpch.Data, dir string, width, shards int) (*system, error) {
	e := engine.New(engine.Config{
		ExtendedStorageDir: filepath.Join(dir, "ext"),
		Parallelism:        width,
		Topology:           dist.Topology{Shards: shards},
	})
	sys := &system{e: e, dir: dir}
	schemas := tpch.Schemas()
	for _, name := range tpch.TableNames {
		if err := createTable(ctx, e, name, schemas[name], data.Tables[name], ""); err != nil {
			_ = sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// openHybrid opens the durable engine on dir with the workload's WAL policy.
func openHybrid(dir string, width int) (*engine.Engine, error) {
	return engine.Open(engine.Config{
		DataDir:     dir,
		Parallelism: width,
		WALSync:     txn.SyncPolicy{Mode: txn.SyncCommit},
	})
}

// setupHybrid opens a durable engine with hybrid lineitem and orders (cold
// history in extended storage, aging on) and an in-memory part table.
func setupHybrid(ctx context.Context, data *tpch.Data, dir string, width int) (*system, error) {
	e, err := openHybrid(dir, width)
	if err != nil {
		return nil, err
	}
	sys := &system{e: e, dir: dir}
	schemas := tpch.Schemas()
	for _, t := range []struct{ name, on string }{
		{"lineitem", "l_shipdate"}, {"orders", "o_orderdate"}, {"part", ""},
	} {
		if err := createTable(ctx, e, t.name, schemas[t.name], data.Tables[t.name], t.on); err != nil {
			_ = sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// setupFederation assembles the §4.4 deployment: LINEITEM, CUSTOMER,
// ORDERS, PARTSUPP and PART in Hive over a 7-node simulated HDFS (no
// simulated job start-up sleep), SUPPLIER, NATION, REGION and a local PART
// copy in the engine. The adapter factory is wrapped so every shipped
// query is timed from outside.
func setupFederation(ctx context.Context, data *tpch.Data, dir string, width int, host string, wrap func(fed.Factory) fed.Factory) (*system, error) {
	schemas := tpch.Schemas()
	cluster := hdfs.NewCluster(7, hdfs.WithBlockSize(1<<20), hdfs.WithReplication(3))
	ms := hive.NewMetastore(cluster, "/warehouse")
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 240, ReduceSlots: 120, DefaultReducers: 4})
	srv := hive.NewServer(host, ms, mr)
	hive.RegisterServer(srv)
	sys := &system{dir: dir, hive: srv, host: host}
	fail := func(err error) (*system, error) {
		_ = sys.close()
		return nil, err
	}
	for _, t := range tpch.FederatedTables {
		if _, err := ms.CreateTable(t, schemas[t], false); err != nil {
			return fail(err)
		}
		if err := ms.LoadRows(t, data.Tables[t], 1+len(data.Tables[t])/50000); err != nil {
			return fail(err)
		}
	}
	sys.e = engine.New(engine.Config{
		ExtendedStorageDir:  filepath.Join(dir, "ext"),
		EnableRemoteCache:   true,
		RemoteCacheValidity: time.Hour,
		Parallelism:         width,
	})
	sys.e.Registry().Register("hiveodbc", wrap(hive.NewAdapterFactory()))
	if _, err := sys.e.ExecuteContext(ctx, fmt.Sprintf(
		`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION 'DSN=%s'
		 WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`, host)); err != nil {
		return fail(err)
	}
	for _, t := range tpch.FederatedTables {
		if _, err := sys.e.ExecuteContext(ctx, fmt.Sprintf(
			`CREATE VIRTUAL TABLE %s AT "HIVE1"."dflo"."dflo"."%s"`, t, t)); err != nil {
			return fail(err)
		}
	}
	for _, t := range tpch.LocalTables {
		if err := createTable(ctx, sys.e, t, schemas[t], data.Tables[t], ""); err != nil {
			return fail(err)
		}
	}
	if err := createTable(ctx, sys.e, "part_local", schemas["part"], data.Tables["part"], ""); err != nil {
		return fail(err)
	}
	return sys, nil
}

// setupOracleFederation is the federated workload's independent oracle:
// every table, the local PART copy included, in one all-local engine.
func setupOracleFederation(ctx context.Context, data *tpch.Data, dir string) (*system, error) {
	sys, err := setupLocal(ctx, data, dir, 1, 0)
	if err != nil {
		return nil, err
	}
	if err := createTable(ctx, sys.e, "part_local", tpch.Schemas()["part"], data.Tables["part"], ""); err != nil {
		_ = sys.close()
		return nil, err
	}
	return sys, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
