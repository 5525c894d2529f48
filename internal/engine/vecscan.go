package engine

import (
	"context"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Vectorized table scans (ROADMAP item 2). scanPartsVec is the batch
// counterpart of scanParts: each morsel decodes its row range into a
// columnar batch straight from the store's compressed form (dictionary
// codes, bit-packed integers), applies MVCC visibility as a selection
// vector, and filters through the vectorized predicate kernels. Batches
// concatenate in (partition, row-id) order with ascending selections, so
// the rows they later materialize are byte-identical to the row scan at
// any worker width.

// scanPartsVec scans in-memory partitions as columnar batches. It mirrors
// scanParts' morselization, counters and error behavior; extended
// partitions are not supported (callers route them to the row path).
// needed marks the column ordinals the statement references (nil = all);
// unneeded columns of columnar partitions are pruned (decoded as NULL).
func (p *planner) scanPartsVec(parts []*partition, pred expr.Expr, needed []bool, schema *value.Schema) ([]*value.Batch, []int, error) {
	nm := 0
	for _, part := range parts {
		nm += (part.numRows() + exec.DefaultMorselSize - 1) / exec.DefaultMorselSize
	}
	ms := make([]scanMorsel, 0, nm)
	for pi, part := range parts {
		n := part.numRows()
		for lo := 0; lo < n; lo += exec.DefaultMorselSize {
			hi := lo + exec.DefaultMorselSize
			if hi > n {
				hi = n
			}
			ms = append(ms, scanMorsel{partIdx: pi, part: part, lo: lo, hi: hi})
		}
	}

	outs := make([]*value.Batch, len(ms))
	visible := make([]int, len(ms))
	if len(ms) > 0 {
		workers, err := p.e.pool.Run(p.ctx, len(ms), p.width, func(_ context.Context, i int) error {
			m := ms[i]
			var b *value.Batch
			switch {
			case m.part.hot != nil:
				b = m.part.hot.ReadBatch(m.lo, m.hi, needed)
				sel := make([]int32, 0, b.N)
				for id := m.lo; id < m.hi; id++ {
					if m.part.vers.Visible(id, p.snapshot, p.tid) {
						sel = append(sel, int32(id-m.lo))
					}
				}
				b.Sel = sel
			default: // row-store partition: box rows, then enter the batch path
				rows, err := m.part.visibleRowsRange(p.snapshot, p.tid, m.lo, m.hi)
				if err != nil {
					return err
				}
				b = value.BatchFromRows(schema, rows)
			}
			b.Schema = schema
			visible[i] = b.Len()
			p.stats.NoteScanned(b.Len())
			if pred != nil {
				if err := expr.SelectBatch(pred, b); err != nil {
					return err
				}
			}
			outs[i] = b
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		p.stats.NoteDispatch(len(ms), workers)
	}

	perPart := make([]int, len(parts))
	batches := make([]*value.Batch, 0, len(ms))
	for i, m := range ms {
		perPart[m.partIdx] += visible[i]
		if outs[i].Len() > 0 {
			batches = append(batches, outs[i])
		}
	}
	return batches, perPart, nil
}

// neededOrds resolves the statement-wide referenced-column name set against
// a table schema. nil means every column is needed.
func neededOrds(needed map[string]bool, schema *value.Schema) []bool {
	if needed == nil {
		return nil
	}
	out := make([]bool, len(schema.Cols))
	for i, c := range schema.Cols {
		out[i] = needed[strings.ToUpper(c.Name)]
	}
	return out
}

// collectNeeded walks a full statement — including every nested subquery —
// and returns the upper-cased unqualified column names it references.
// nil means "assume everything is needed": a star item, a CCL KEEP clause,
// or an expression node the walker does not recognize disables pruning,
// keeping late materialization strictly conservative.
func collectNeeded(sel *sqlparse.SelectStmt) map[string]bool {
	set := map[string]bool{}
	all := false
	var walkExpr func(e expr.Expr)
	var walkSel func(s *sqlparse.SelectStmt)
	var walkFrom func(te sqlparse.TableExpr)
	walkExpr = func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			switch sq := n.(type) {
			case *expr.ColRef:
				name := sq.Name
				if i := strings.LastIndexByte(name, '.'); i >= 0 {
					name = name[i+1:]
				}
				set[strings.ToUpper(name)] = true
			case *sqlparse.SubqueryExpr:
				walkSel(sq.Sel)
			case *sqlparse.ExistsExpr:
				walkSel(sq.Sel)
			case *sqlparse.InSubqueryExpr:
				walkExpr(sq.E)
				walkSel(sq.Sel)
			case *expr.Literal, *expr.Param, *expr.BinOp, *expr.UnOp, *expr.IsNull,
				*expr.Between, *expr.In, *expr.Like, *expr.Func, *expr.Cast, *expr.CaseWhen:
				// Known scalar nodes: expr.Walk descends into their children.
			default:
				all = true // unknown node: it may hide column references
			}
			return true
		})
	}
	walkFrom = func(te sqlparse.TableExpr) {
		switch t := te.(type) {
		case *sqlparse.JoinExpr:
			walkFrom(t.L)
			walkFrom(t.R)
			walkExpr(t.On)
		case *sqlparse.SubqueryTable:
			walkSel(t.Sel)
		case *sqlparse.TableFuncRef:
			for _, a := range t.Args {
				walkExpr(a)
			}
		}
	}
	walkSel = func(s *sqlparse.SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			if it.Star {
				all = true
				continue
			}
			walkExpr(it.Expr)
		}
		walkFrom(s.From)
		walkExpr(s.Where)
		for _, g := range s.GroupBy {
			walkExpr(g)
		}
		walkExpr(s.Having)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr)
		}
		if s.Keep != nil {
			all = true
		}
	}
	walkSel(sel)
	if all {
		return nil
	}
	return set
}
