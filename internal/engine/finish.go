package engine

import (
	"fmt"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// finishBlock applies the post-join stages of a query block: aggregation,
// HAVING, projection, DISTINCT, ORDER BY and LIMIT.
func (p *planner) finishBlock(sel *sqlparse.SelectStmt, it exec.Iter, root *planNode) (exec.Iter, *planNode, error) {
	inSchema := it.Schema()
	items, err := expandStars(sel.Items, inSchema)
	if err != nil {
		return nil, nil, err
	}

	needAgg := len(sel.GroupBy) > 0
	if !needAgg {
		for _, item := range items {
			if expr.HasAggregate(item.Expr) {
				needAgg = true
				break
			}
		}
		if sel.Having != nil && expr.HasAggregate(sel.Having) {
			needAgg = true
		}
	}

	having := sel.Having
	orderExprs := make([]expr.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
	}

	if needAgg {
		var err error
		it, items, having, orderExprs, err = p.aggregate(sel, it, items, having, orderExprs)
		if err != nil {
			return nil, nil, err
		}
		root = node(fmt.Sprintf("Hash Aggregate (%d group cols, groups)", len(sel.GroupBy)), root)
	}

	return p.finishAfterAgg(sel, it, root, items, having, orderExprs)
}

// finishAfterAgg applies the stages downstream of aggregation — HAVING,
// projection, DISTINCT, ORDER BY, LIMIT — to an input whose aggregate (if
// any) has already run. The distributed path enters here after merging
// shard partials, so both paths share one implementation of the finishing
// stages.
func (p *planner) finishAfterAgg(sel *sqlparse.SelectStmt, it exec.Iter, root *planNode, items []sqlparse.SelectItem, having expr.Expr, orderExprs []expr.Expr) (exec.Iter, *planNode, error) {
	if having != nil {
		pred, err := bindToSchema(having, it.Schema())
		if err != nil {
			return nil, nil, err
		}
		it = exec.FilterIter(it, pred)
		root = node("Having: "+pred.SQL(), root)
	}

	// Projection. ORDER BY keys that reference non-projected columns get
	// hidden sort columns appended, dropped again after the sort.
	preSchema := it.Schema()
	outSchema := &value.Schema{}
	var exprs []expr.Expr
	for _, item := range items {
		be, err := bindToSchema(item.Expr, preSchema)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, be)
		outSchema.Cols = append(outSchema.Cols, value.Column{
			Name:     outName(item),
			Kind:     inferKind(item.Expr, preSchema),
			Nullable: true,
		})
	}
	visibleWidth := len(exprs)

	type pendingKey struct {
		e    expr.Expr
		desc bool
	}
	var keys []pendingKey
	for i, o := range sel.OrderBy {
		oe := orderExprs[i]
		for _, item := range items {
			if item.Expr != nil && item.Expr.SQL() == oe.SQL() {
				oe = expr.Col(outName(item))
				break
			}
		}
		if try, err := bindToSchema(oe, outSchema); err == nil {
			keys = append(keys, pendingKey{e: try, desc: o.Desc})
			continue
		}
		// Hidden sort column evaluated against the pre-projection input.
		be, err := bindToSchema(oe, preSchema)
		if err != nil {
			return nil, nil, fmt.Errorf("ORDER BY: %w", err)
		}
		hidden := fmt.Sprintf("$sort%d", i)
		exprs = append(exprs, be)
		outSchema.Cols = append(outSchema.Cols, value.Column{Name: hidden, Kind: inferKind(oe, preSchema), Nullable: true})
		key := expr.Col(hidden)
		if err := expr.Bind(key, outSchema); err != nil {
			return nil, nil, err
		}
		keys = append(keys, pendingKey{e: key, desc: o.Desc})
	}

	it = exec.ProjectIter(it, exprs, outSchema)
	root = node("Project: "+strings.Join(outSchema.Names()[:visibleWidth], ", "), root)

	if sel.Distinct {
		if len(outSchema.Cols) != visibleWidth {
			return nil, nil, fmt.Errorf("DISTINCT with ORDER BY over non-projected columns is not supported")
		}
		it = &exec.Distinct{In: it}
		root = node("Distinct", root)
	}

	if len(keys) > 0 {
		sk := make([]exec.SortKey, len(keys))
		for i, k := range keys {
			sk[i] = exec.SortKey{E: k.e, Desc: k.desc}
		}
		it = &exec.Sort{In: it, Keys: sk}
		root = node("Sort", root)
	}
	if sel.Limit >= 0 {
		it = &exec.Limit{In: it, N: sel.Limit}
		root = node(fmt.Sprintf("Limit %d", sel.Limit), root)
	}
	// Drop hidden sort columns.
	if len(outSchema.Cols) != visibleWidth {
		finalSchema := &value.Schema{Cols: append([]value.Column{}, outSchema.Cols[:visibleWidth]...)}
		finalExprs := make([]expr.Expr, visibleWidth)
		for i := range finalExprs {
			c := expr.Col(outSchema.Cols[i].Name)
			c.Ord = i
			finalExprs[i] = c
		}
		it = exec.ProjectIter(it, finalExprs, finalSchema)
	}
	return it, root, nil
}

// applyOrderLimit sorts and limits, resolving ORDER BY expressions against
// the projection's output (aliases, repeated item expressions).
func (p *planner) applyOrderLimit(sel *sqlparse.SelectStmt, items []sqlparse.SelectItem, orderExprs []expr.Expr, it exec.Iter, root *planNode) (exec.Iter, *planNode, error) {
	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			oe := orderExprs[i]
			// Match the textual form of a select item: ORDER BY SUM(x) when
			// SUM(x) is also projected.
			for _, item := range items {
				if item.Expr != nil && item.Expr.SQL() == oe.SQL() {
					oe = expr.Col(outName(item))
					break
				}
			}
			be, err := bindToSchema(oe, it.Schema())
			if err != nil {
				return nil, nil, fmt.Errorf("ORDER BY: %w", err)
			}
			keys[i] = exec.SortKey{E: be, Desc: o.Desc}
		}
		it = &exec.Sort{In: it, Keys: keys}
		root = node("Sort", root)
	}
	if sel.Limit >= 0 {
		it = &exec.Limit{In: it, N: sel.Limit}
		root = node(fmt.Sprintf("Limit %d", sel.Limit), root)
	}
	return it, root, nil
}

// aggregate inserts a HashAggregate and rewrites items/having/order
// expressions to reference the aggregate's output columns.
func (p *planner) aggregate(sel *sqlparse.SelectStmt, it exec.Iter, items []sqlparse.SelectItem, having expr.Expr, orderExprs []expr.Expr) (exec.Iter, []sqlparse.SelectItem, expr.Expr, []expr.Expr, error) {
	inSchema := it.Schema()

	// Group keys.
	groupNames := make([]string, len(sel.GroupBy))
	boundGroups := make([]expr.Expr, len(sel.GroupBy))
	outSchema := &value.Schema{}
	for i, g := range sel.GroupBy {
		groupNames[i] = exprName(g)
		bg, err := bindToSchema(g, inSchema)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("GROUP BY: %w", err)
		}
		boundGroups[i] = bg
		outSchema.Cols = append(outSchema.Cols, value.Column{
			Name: groupNames[i], Kind: inferKind(g, inSchema), Nullable: true,
		})
	}

	// Collect distinct aggregate calls across items, having and order by.
	var specs []exec.AggSpec
	aggCols := map[string]string{} // agg SQL → output column name
	collect := func(e expr.Expr) error {
		var err error
		expr.Walk(e, func(n expr.Expr) bool {
			f, ok := n.(*expr.Func)
			if !ok || !f.IsAggregate() {
				return true
			}
			key := f.SQL()
			if _, seen := aggCols[key]; seen {
				return false
			}
			spec := exec.AggSpec{Func: f.Name, Distinct: f.Distinct}
			if !f.Star {
				if len(f.Args) != 1 {
					err = fmt.Errorf("aggregate %s expects one argument", f.Name)
					return false
				}
				var be expr.Expr
				be, err = bindToSchema(f.Args[0], inSchema)
				if err != nil {
					return false
				}
				spec.Arg = be
			}
			aggCols[key] = key
			specs = append(specs, spec)
			outSchema.Cols = append(outSchema.Cols, value.Column{
				Name: key, Kind: inferKind(f, inSchema), Nullable: true,
			})
			return false
		})
		return err
	}
	for _, item := range items {
		if err := collect(item.Expr); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if having != nil {
		if err := collect(having); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for _, oe := range orderExprs {
		if err := collect(oe); err != nil {
			return nil, nil, nil, nil, err
		}
	}

	agg := &exec.HashAggregate{
		In: it, GroupBy: boundGroups, Aggs: specs, Out: outSchema,
		Pool: p.e.pool, Ctx: p.ctx, Width: p.width, Stats: p.stats,
	}

	// Rewrite expressions over the aggregate output: aggregate calls and
	// group expressions become column references.
	groupSQL := map[string]string{}
	for i, g := range sel.GroupBy {
		groupSQL[g.SQL()] = groupNames[i]
	}
	rewrite := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil
		}
		return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if f, ok := n.(*expr.Func); ok && f.IsAggregate() {
				return expr.Col(aggCols[f.SQL()])
			}
			if name, ok := groupSQL[n.SQL()]; ok {
				return expr.Col(name)
			}
			return nil
		})
	}
	outItems := make([]sqlparse.SelectItem, len(items))
	for i, item := range items {
		outItems[i] = sqlparse.SelectItem{Expr: rewrite(item.Expr), Alias: item.Alias}
	}
	outOrder := make([]expr.Expr, len(orderExprs))
	for i, oe := range orderExprs {
		outOrder[i] = rewrite(oe)
	}
	return agg, outItems, rewrite(having), outOrder, nil
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sqlparse.SelectItem, s *value.Schema) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, col := range s.Cols {
			if item.Qual != "" {
				prefix := strings.ToUpper(item.Qual) + "."
				if !strings.HasPrefix(strings.ToUpper(col.Name), prefix) {
					continue
				}
			}
			out = append(out, sqlparse.SelectItem{Expr: expr.Col(col.Name)})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("star expansion found no columns for %s.*", item.Qual)
		}
	}
	return out, nil
}

// outName is the result column name of a select item.
func outName(item sqlparse.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*expr.ColRef); ok {
		// Unqualify: "customer.c_name" projects as "c_name".
		if dot := strings.LastIndexByte(c.Name, '.'); dot >= 0 {
			return c.Name[dot+1:]
		}
		return c.Name
	}
	return item.Expr.SQL()
}

// exprName names a grouping expression.
func exprName(g expr.Expr) string {
	if c, ok := g.(*expr.ColRef); ok {
		return c.Name
	}
	return g.SQL()
}

// inferKind guesses the result kind of an expression for schema metadata.
func inferKind(e expr.Expr, s *value.Schema) value.Kind {
	switch n := e.(type) {
	case *expr.ColRef:
		if i := s.Find(n.Name); i >= 0 {
			return s.Cols[i].Kind
		}
		return value.KindDouble
	case *expr.Literal:
		return n.Val.K
	case *expr.Cast:
		return n.To
	case *expr.Func:
		switch n.Name {
		case "COUNT":
			return value.KindInt
		case "AVG", "STDDEV", "VAR":
			return value.KindDouble
		case "SUM", "MIN", "MAX":
			if len(n.Args) == 1 {
				return inferKind(n.Args[0], s)
			}
			return value.KindDouble
		case "YEAR", "MONTH", "DAY", "LENGTH", "MOD", "FLOOR", "CEIL":
			return value.KindInt
		case "UPPER", "LOWER", "SUBSTR", "SUBSTRING", "TRIM", "CONCAT", "TO_VARCHAR":
			return value.KindVarchar
		}
		return value.KindDouble
	case *expr.BinOp:
		if n.Op.Comparison() || n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return value.KindBool
		}
		if n.Op == expr.OpConcat {
			return value.KindVarchar
		}
		lk := inferKind(n.L, s)
		rk := inferKind(n.R, s)
		if lk == value.KindInt && rk == value.KindInt && n.Op != expr.OpDiv {
			return value.KindInt
		}
		if lk == value.KindDate {
			return lk
		}
		return value.KindDouble
	case *expr.UnOp:
		if n.Op == expr.OpNot {
			return value.KindBool
		}
		return inferKind(n.E, s)
	case *expr.Between, *expr.In, *expr.Like, *expr.IsNull:
		return value.KindBool
	case *expr.CaseWhen:
		if len(n.Whens) > 0 {
			return inferKind(n.Whens[0].Then, s)
		}
	}
	return value.KindDouble
}
