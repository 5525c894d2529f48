package engine

import (
	"fmt"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// subqueryTransform is a WHERE-clause subquery waiting to be converted to a
// semi/anti join after the FROM tree is planned.
type subqueryTransform struct {
	anti      bool
	nullAware bool                 // NOT IN semantics
	outerExpr expr.Expr            // IN-subquery comparison expression (nil for EXISTS)
	sel       *sqlparse.SelectStmt // the subquery block
}

// asSubqueryTransform recognizes [NOT] IN (SELECT …), [NOT] EXISTS (…) —
// including NOT applied via the parser's generic negation node.
func asSubqueryTransform(c expr.Expr) (subqueryTransform, bool) {
	switch n := c.(type) {
	case *sqlparse.InSubqueryExpr:
		return subqueryTransform{anti: n.Negate, nullAware: n.Negate, outerExpr: n.E, sel: n.Sel}, true
	case *sqlparse.ExistsExpr:
		return subqueryTransform{anti: n.Negate, sel: n.Sel}, true
	case *expr.UnOp:
		if n.Op != expr.OpNot {
			return subqueryTransform{}, false
		}
		if tf, ok := asSubqueryTransform(n.E); ok {
			tf.anti = !tf.anti
			tf.nullAware = tf.anti && tf.outerExpr != nil
			return tf, true
		}
	}
	return subqueryTransform{}, false
}

// applyTransform converts one subquery transform into a semi/anti hash
// join on top of the current iterator.
func (p *planner) applyTransform(it exec.Iter, root *planNode, tf subqueryTransform) (exec.Iter, *planNode, error) {
	kind := exec.JoinSemi
	label := "Semi Join (IN/EXISTS subquery)"
	if tf.anti {
		kind = exec.JoinAnti
		label = "Anti Join (NOT IN/NOT EXISTS subquery)"
	}
	// semiAnti runs the join against the subquery's rows as build side.
	semiAnti := func(sub *value.Rows, leftKeys, rightKeys []expr.Expr, nullAware bool) (exec.Iter, error) {
		left, err := exec.SideOf(it)
		if err != nil {
			return nil, err
		}
		rows, err := p.runJoin(&exec.HashJoin{
			Kind: kind, Left: left, Right: exec.JoinSide{Rows: sub.Data},
			LeftKeys: leftKeys, RightKeys: rightKeys, RightWidth: sub.Schema.Len(),
			NullAwareAnti: nullAware,
		})
		if err != nil {
			return nil, err
		}
		return exec.NewSlice(it.Schema(), rows), nil
	}

	if tf.outerExpr != nil {
		// IN (SELECT …): uncorrelated; the subquery's single output column
		// is the build key.
		sub, subNode, err := p.blockRows(tf.sel)
		if err != nil {
			return nil, nil, err
		}
		if sub.Schema.Len() != 1 {
			return nil, nil, fmt.Errorf("IN subquery must return one column, got %d", sub.Schema.Len())
		}
		leftKey, err := bindToSchema(tf.outerExpr, it.Schema())
		if err != nil {
			return nil, nil, err
		}
		rightKey := expr.Col(sub.Schema.Cols[0].Name)
		if err := expr.Bind(rightKey, sub.Schema); err != nil {
			return nil, nil, err
		}
		join, err := semiAnti(sub, []expr.Expr{leftKey}, []expr.Expr{rightKey}, tf.nullAware)
		if err != nil {
			return nil, nil, err
		}
		return join, node(label, root, subNode), nil
	}

	// EXISTS: decorrelate equality predicates between outer and inner
	// columns into join keys.
	innerSchema, err := p.fromSchemaPreview(tf.sel.From)
	if err != nil {
		return nil, nil, err
	}
	outerSchema := it.Schema()
	var outerKeys, innerKeys []expr.Expr
	var remaining []expr.Expr
	for _, c := range expr.SplitConjuncts(tf.sel.Where) {
		if ok, ok2 := correlationPair(c, outerSchema, innerSchema); ok != nil {
			outerKeys = append(outerKeys, ok)
			innerKeys = append(innerKeys, ok2)
			continue
		}
		remaining = append(remaining, c)
	}
	if len(outerKeys) == 0 {
		// Uncorrelated EXISTS: evaluate once.
		probe := &sqlparse.SelectStmt{Items: tf.sel.Items, From: tf.sel.From,
			Where: expr.And(remaining...), GroupBy: tf.sel.GroupBy, Having: tf.sel.Having, Limit: 1}
		rows, _, err := p.blockRows(probe)
		if err != nil {
			return nil, nil, err
		}
		exists := rows.Len() > 0
		if exists != tf.anti {
			return it, node("Exists(const true)", root), nil
		}
		return exec.NewSlice(it.Schema(), nil), node("Exists(const false)", root), nil
	}

	// Plan the inner block projecting the correlation keys.
	items := make([]sqlparse.SelectItem, len(innerKeys))
	for i, k := range innerKeys {
		items[i] = sqlparse.SelectItem{Expr: expr.Clone(k)}
	}
	subSel := &sqlparse.SelectStmt{Items: items, From: tf.sel.From, Where: expr.And(remaining...), Limit: -1}
	sub, subNode, err := p.blockRows(subSel)
	if err != nil {
		return nil, nil, err
	}
	boundOuter := make([]expr.Expr, len(outerKeys))
	boundInner := make([]expr.Expr, len(innerKeys))
	for i := range outerKeys {
		if boundOuter[i], err = bindToSchema(outerKeys[i], outerSchema); err != nil {
			return nil, nil, err
		}
		boundInner[i] = expr.Col(sub.Schema.Cols[i].Name)
		if err := expr.Bind(boundInner[i], sub.Schema); err != nil {
			return nil, nil, err
		}
	}
	join, err := semiAnti(sub, boundOuter, boundInner, false)
	if err != nil {
		return nil, nil, err
	}
	return join, node(label+" (decorrelated)", root, subNode), nil
}

// correlationPair decomposes an equality between an outer column and an
// inner column; returns (outerExpr, innerExpr) or nils.
func correlationPair(c expr.Expr, outer, inner *value.Schema) (expr.Expr, expr.Expr) {
	b, ok := c.(*expr.BinOp)
	if !ok || b.Op != expr.OpEq {
		return nil, nil
	}
	side := func(e expr.Expr) (isOuter, isInner bool) {
		cols := expr.Columns(e)
		if len(cols) == 0 {
			return false, false
		}
		isOuter, isInner = true, true
		for _, col := range cols {
			if inner.Find(col) >= 0 {
				isOuter = false
			} else {
				isInner = false
			}
			if outer.Find(col) < 0 {
				isOuter = false
			}
		}
		return isOuter, isInner
	}
	lOuter, lInner := side(b.L)
	rOuter, rInner := side(b.R)
	if lOuter && rInner {
		return b.L, b.R
	}
	if rOuter && lInner {
		return b.R, b.L
	}
	return nil, nil
}

// inlineScalarSubqueries replaces scalar subqueries with their computed
// literal value.
func (p *planner) inlineScalarSubqueries(c expr.Expr) (expr.Expr, error) {
	var firstErr error
	out := expr.Rewrite(c, func(n expr.Expr) expr.Expr {
		sq, ok := n.(*sqlparse.SubqueryExpr)
		if !ok {
			return nil
		}
		rows, _, err := p.blockRows(sq.Sel)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return expr.Lit(value.Null)
		}
		if rows.Schema.Len() != 1 {
			if firstErr == nil {
				firstErr = fmt.Errorf("scalar subquery must return one column")
			}
			return expr.Lit(value.Null)
		}
		switch rows.Len() {
		case 0:
			return expr.Lit(value.Null)
		case 1:
			return expr.Lit(rows.Data[0][0])
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("scalar subquery returned %d rows", rows.Len())
			}
			return expr.Lit(value.Null)
		}
	})
	return out, firstErr
}

// fromSchemaPreview resolves the schema a FROM tree will produce without
// executing it — used for decorrelation analysis.
func (p *planner) fromSchemaPreview(te sqlparse.TableExpr) (*value.Schema, error) {
	switch t := te.(type) {
	case nil:
		return value.NewSchema(), nil
	case *sqlparse.TableRef:
		name, binding := t.Name(), t.Binding()
		if vt, ok := p.e.cat.VirtualTable(name); ok {
			return vt.Schema.Qualify(binding), nil
		}
		if st, err := p.e.table(name); err == nil {
			return st.meta.Schema.Qualify(binding), nil
		}
		return nil, fmt.Errorf("table %s not found", name)
	case *sqlparse.JoinExpr:
		l, err := p.fromSchemaPreview(t.L)
		if err != nil {
			return nil, err
		}
		r, err := p.fromSchemaPreview(t.R)
		if err != nil {
			return nil, err
		}
		return l.Concat(r), nil
	case *sqlparse.TableFuncRef:
		if vf, ok := p.e.cat.VirtualFunction(t.Name); ok {
			return vf.Returns.Qualify(t.Binding()), nil
		}
		return nil, fmt.Errorf("table function %s not found", t.Name)
	case *sqlparse.SubqueryTable:
		inner, err := p.fromSchemaPreview(t.Sel.From)
		if err != nil {
			return nil, err
		}
		items, err := expandStars(t.Sel.Items, inner)
		if err != nil {
			return nil, err
		}
		out := &value.Schema{}
		for _, item := range items {
			out.Cols = append(out.Cols, value.Column{
				Name: outName(item), Kind: inferKind(item.Expr, inner), Nullable: true,
			})
		}
		return out.Qualify(t.Alias), nil
	}
	return nil, fmt.Errorf("unsupported FROM element %T", te)
}
