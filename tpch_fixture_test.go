package hana

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hana/internal/engine"
	"hana/internal/tpch"
	"hana/internal/value"
)

// The equivalence suites all run the 12-query TPC-H set over the same
// generated data set.
const (
	tpchSF   = 0.005
	tpchSeed = 2015
)

var (
	tpchOnce sync.Once
	tpchData *tpch.Data
)

// loadTPCH returns a fresh engine built from cfg (with a per-test extended
// storage directory) with every TPC-H table created and bulk-loaded. The
// generated data is shared across calls.
func loadTPCH(t testing.TB, cfg engine.Config) *engine.Engine {
	t.Helper()
	tpchOnce.Do(func() { tpchData = tpch.Generate(tpchSF, tpchSeed) })
	cfg.ExtendedStorageDir = t.TempDir()
	e := engine.New(cfg)
	schemas := tpch.Schemas()
	for name, rows := range tpchData.Tables {
		var ddl strings.Builder
		fmt.Fprintf(&ddl, "CREATE TABLE %s (", name)
		for i, c := range schemas[name].Cols {
			if i > 0 {
				ddl.WriteString(", ")
			}
			ddl.WriteString(c.Name + " " + c.Kind.String())
		}
		ddl.WriteString(")")
		if _, err := e.ExecuteContext(context.Background(), ddl.String()); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return e
}

// goldenPath names query id's golden result file. A golden file holds one
// query result as text that round-trips exactly: a "schema" line of
// "name":KIND:nullability per column, then one "row" line per result row
// with a KIND:payload cell per value (a bare NULL for SQL NULL). DOUBLE
// payloads are strconv.FormatFloat(f, 'g', -1, 64), which parses back to
// the same bits; names and VARCHAR payloads are Go-quoted.
func goldenPath(id int) string {
	return filepath.Join("testdata", "tpch", fmt.Sprintf("q%02d.golden", id))
}

func formatGolden(s *value.Schema, rows []value.Row) string {
	var b strings.Builder
	b.WriteString("schema")
	for _, c := range s.Cols {
		null := "notnull"
		if c.Nullable {
			null = "null"
		}
		fmt.Fprintf(&b, "\t%s:%s:%s", strconv.Quote(c.Name), c.Kind, null)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString("row")
		for _, v := range r {
			b.WriteByte('\t')
			b.WriteString(formatCell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v value.Value) string {
	switch v.K {
	case value.KindNull:
		return "NULL"
	case value.KindDouble:
		return "DOUBLE:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case value.KindVarchar:
		return "VARCHAR:" + strconv.Quote(v.S)
	}
	return v.K.String() + ":" + strconv.FormatInt(v.I, 10)
}

func parseCell(cell string) (value.Value, error) {
	if cell == "NULL" {
		return value.Null, nil
	}
	kind, payload, ok := strings.Cut(cell, ":")
	if !ok {
		return value.Null, fmt.Errorf("cell %q: missing kind", cell)
	}
	k, ok := value.KindFromSQL(kind)
	if !ok || k.String() != kind {
		return value.Null, fmt.Errorf("cell %q: unknown kind", cell)
	}
	switch k {
	case value.KindDouble:
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return value.Null, fmt.Errorf("cell %q: %v", cell, err)
		}
		return value.NewDouble(f), nil
	case value.KindVarchar:
		s, err := strconv.Unquote(payload)
		if err != nil {
			return value.Null, fmt.Errorf("cell %q: %v", cell, err)
		}
		return value.NewString(s), nil
	}
	i, err := strconv.ParseInt(payload, 10, 64)
	if err != nil {
		return value.Null, fmt.Errorf("cell %q: %v", cell, err)
	}
	return value.Value{K: k, I: i}, nil
}

// readGolden parses one golden file back into a schema and rows.
func readGolden(path string) (*value.Schema, []value.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var (
		s    *value.Schema
		rows []value.Row
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		fields := strings.Split(sc.Text(), "\t")
		switch fields[0] {
		case "schema":
			s = value.NewSchema()
			for _, f := range fields[1:] {
				rest, null := cutLast(f, ":")
				quoted, kind := cutLast(rest, ":")
				name, err := strconv.Unquote(quoted)
				if err != nil {
					return nil, nil, fmt.Errorf("%s:%d: bad column %q", path, ln, f)
				}
				k, ok := value.KindFromSQL(kind)
				if !ok && kind != "NULL" {
					return nil, nil, fmt.Errorf("%s:%d: bad kind %q", path, ln, kind)
				}
				s.Cols = append(s.Cols, value.Column{Name: name, Kind: k, Nullable: null == "null"})
			}
		case "row":
			r := make(value.Row, 0, len(fields)-1)
			for _, c := range fields[1:] {
				v, err := parseCell(c)
				if err != nil {
					return nil, nil, fmt.Errorf("%s:%d: %v", path, ln, err)
				}
				r = append(r, v)
			}
			rows = append(rows, r)
		default:
			return nil, nil, fmt.Errorf("%s:%d: unknown line kind %q", path, ln, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if s == nil {
		return nil, nil, fmt.Errorf("%s: no schema line", path)
	}
	return s, rows, nil
}

// cutLast splits s around the last sep; a column name may itself contain
// a colon, its kind and nullability never do.
func cutLast(s, sep string) (before, after string) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):]
	}
	return s, ""
}
