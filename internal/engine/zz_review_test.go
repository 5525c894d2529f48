package engine

import (
	"context"
	"os"
	"testing"

	"hana/internal/txn"
	"hana/internal/value"
)

func TestReviewBulkLoadExtAfterSavepoint(t *testing.T) {
	dir, _ := os.MkdirTemp("", "rev1")
	defer os.RemoveAll(dir)
	e, err := Open(Config{DataDir: dir, WALSync: txn.SyncPolicy{Mode: txn.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), `CREATE TABLE k_ext (id BIGINT, v VARCHAR(20)) USING EXTENDED STORAGE`); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("k_ext", []value.Row{
		{value.NewInt(1), value.NewString("a")},
		{value.NewInt(2), value.NewString("b")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Savepoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("k_ext", []value.Row{
		{value.NewInt(3), value.NewString("c")},
		{value.NewInt(4), value.NewString("d")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), `SELECT id FROM k_ext`)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("before close: %d rows", len(res.Rows))
	e.Close()

	e2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	res2, err := e2.ExecuteContext(context.Background(), `SELECT id FROM k_ext`)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("after reopen: %d rows (want 4)", len(res2.Rows))
	if len(res2.Rows) != 4 {
		t.Fatalf("lost rows: got %d, want 4", len(res2.Rows))
	}
}
