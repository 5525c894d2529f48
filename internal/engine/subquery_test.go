package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestSubqueryNullSemantics pins the SQL three-valued semantics of the
// semi/anti joins behind [NOT] IN and [NOT] EXISTS subqueries: x NOT IN (S)
// is TRUE for every x when S is empty, UNKNOWN (row dropped) when x is NULL
// or S holds a NULL, while NOT EXISTS never sees NULLs as matches and IN /
// EXISTS emit each probe row at most once. Each case runs at widths 1 and 4.
func TestSubqueryNullSemantics(t *testing.T) {
	queries := map[string]string{
		"IN":         `SELECT x FROM a WHERE x IN (SELECT y FROM b)`,
		"NOT IN":     `SELECT x FROM a WHERE x NOT IN (SELECT y FROM b)`,
		"EXISTS":     `SELECT x FROM a WHERE EXISTS (SELECT * FROM b WHERE y = x)`,
		"NOT EXISTS": `SELECT x FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE y = x)`,
	}
	// Rows are listed in insertion order; the probe side keeps that order.
	cases := []struct {
		name string
		a, b string // VALUES lists; "" = empty table
		want map[string]string
	}{
		{
			name: "null probe key", a: "(1), (2), (NULL)", b: "(1), (3)",
			want: map[string]string{"IN": "1", "NOT IN": "2", "EXISTS": "1", "NOT EXISTS": "2 NULL"},
		},
		{
			name: "null build key", a: "(1), (2)", b: "(1), (NULL)",
			want: map[string]string{"IN": "1", "NOT IN": "", "EXISTS": "1", "NOT EXISTS": "2"},
		},
		{
			name: "empty build", a: "(1), (NULL)", b: "",
			want: map[string]string{"IN": "", "NOT IN": "1 NULL", "EXISTS": "", "NOT EXISTS": "1 NULL"},
		},
		{
			name: "duplicate matches", a: "(1), (2), (3)", b: "(1), (1), (2), (2)",
			want: map[string]string{"IN": "1 2", "NOT IN": "3", "EXISTS": "1 2", "NOT EXISTS": "3"},
		},
	}
	for _, tc := range cases {
		e := newTestEngine(t)
		exec1(t, e, `CREATE TABLE a (x BIGINT)`)
		exec1(t, e, `CREATE TABLE b (y BIGINT)`)
		exec1(t, e, `INSERT INTO a VALUES `+tc.a)
		if tc.b != "" {
			exec1(t, e, `INSERT INTO b VALUES `+tc.b)
		}
		for _, op := range []string{"IN", "NOT IN", "EXISTS", "NOT EXISTS"} {
			for _, width := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/width=%d", tc.name, op, width), func(t *testing.T) {
					res, err := e.ExecuteContext(context.Background(), queries[op], WithParallelism(width))
					if err != nil {
						t.Fatal(err)
					}
					got := make([]string, len(res.Rows))
					for i, r := range res.Rows {
						got[i] = r[0].String()
					}
					if g := strings.Join(got, " "); g != tc.want[op] {
						t.Fatalf("got [%s], want [%s]", g, tc.want[op])
					}
				})
			}
		}
	}
}
