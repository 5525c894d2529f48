package exec

import (
	"context"
	"fmt"

	"hana/internal/expr"
	"hana/internal/value"
)

// JoinKind enumerates the hash-join flavors the executor supports. Semi and
// anti joins implement IN/EXISTS subqueries and the federated semijoin
// strategy of §3.1.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinSemi // emit left row if ≥1 match
	JoinAnti // emit left row if 0 matches
)

// JoinSide is one hash-join input: either materialized rows or columnar
// batches straight from a vectorized scan. A batch-backed side keeps late
// materialization through the join — keys are read from the vectors and
// only rows that actually reach the output are boxed.
type JoinSide struct {
	Rows    []value.Row
	Batches []*value.Batch // when non-nil, Rows is ignored
}

// SideOf drains an iterator into a join input: batch producers keep their
// columnar batches, anything else is materialized as rows.
func SideOf(in Iter) (JoinSide, error) {
	if b, ok := in.(BatchIter); ok {
		bs, err := collectBatches(b)
		return JoinSide{Batches: bs}, err
	}
	rows, err := drainRows(in)
	return JoinSide{Rows: rows}, err
}

// length returns the side's live row count.
func (s JoinSide) length() int {
	if s.Batches != nil {
		n := 0
		for _, b := range s.Batches {
			n += b.Len()
		}
		return n
	}
	return len(s.Rows)
}

// fillRow boxes global live row i into dst, which must have the side's
// column width. offs is the side's batchOffsets (ignored for rows).
func (s JoinSide) fillRow(i int, dst value.Row, offs []int) {
	if s.Batches != nil {
		b, phys := batchRowAt(s.Batches, offs, i)
		b.FillRow(phys, dst)
		return
	}
	copy(dst, s.Rows[i])
}

// HashJoin joins Left (probe) against Right (build) on equality of the
// bound key expressions, with morsel-parallel build and probe phases. The
// build side is hashed into per-morsel partial tables holding row indices;
// probe morsels scan the partials in morsel order, so a probe row's matches
// come out in build-input order and probe outputs concatenate in
// probe-input order — the result is byte-identical at any width. Row- and
// batch-backed sides produce the same output: global row ordinals, key
// values, hashes and emission order are the same either way. A nil Pool
// runs every morsel inline on the calling goroutine.
type HashJoin struct {
	Kind      JoinKind
	Left      JoinSide
	Right     JoinSide
	LeftKeys  []expr.Expr // bound to the left schema
	RightKeys []expr.Expr // bound to the right schema
	// Residual is an optional extra predicate on the combined row (bound to
	// the concatenated schema). For inner joins it filters matches; for the
	// other kinds it decides whether a build row counts as a match.
	Residual expr.Expr
	// RightWidth is the build side's column count.
	RightWidth int
	// NullAwareAnti gives an anti join SQL NOT IN semantics: when the
	// build side is non-empty, a NULL build key empties the result and a
	// NULL probe key drops its row. An empty build side keeps every row.
	NullAwareAnti bool

	Pool  *Pool
	Width int
	// MorselSize overrides DefaultMorselSize (tests); 0 = default.
	MorselSize int
	Stats      *Counters
}

// Run executes the join. Inner and left-outer joins return combined rows
// (left columns, then right); semi and anti joins return probe rows
// themselves — row-backed probe rows are not copied, batch-backed ones are
// boxed only when they are emitted.
func (j *HashJoin) Run(ctx context.Context) ([]value.Row, error) {
	kind, left, right := j.Kind, j.Left, j.Right
	leftKeys, rightKeys := j.LeftKeys, j.RightKeys
	residual, rightWidth := j.Residual, j.RightWidth
	stats := j.Stats
	if ctx == nil {
		ctx = context.Background()
	}
	pool := j.Pool
	if pool == nil {
		pool = NewPool(1)
	}
	size := j.MorselSize
	if size <= 0 {
		size = DefaultMorselSize
	}

	var lOffs, rOffs []int
	if left.Batches != nil {
		lOffs = batchOffsets(left.Batches)
	}
	if right.Batches != nil {
		rOffs = batchOffsets(right.Batches)
	}
	lkp, rkp := planKeys(leftKeys), planKeys(rightKeys)
	nLeft, nRight := left.length(), right.length()

	// Build phase: per-morsel hash tables of row indices plus the evaluated
	// key values (evaluated once, reused by every probe comparison).
	type buildPartial struct {
		table   map[uint64][]int
		hasNull bool // some build row has a NULL key
	}
	rightVals := make([][]value.Value, nRight)
	nb := (nRight + size - 1) / size
	buildParts := make([]*buildPartial, nb)
	if nb > 0 {
		workers, err := pool.Run(ctx, nb, j.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := lo + size
			if hi > nRight {
				hi = nRight
			}
			bp := &buildPartial{table: map[uint64][]int{}}
			// One slab per morsel: the retained per-row key slices are carved
			// from it instead of allocating len(rightKeys) values per row.
			slab := make([]value.Value, (hi-lo)*len(rightKeys))
			if right.Batches != nil {
				var scratch value.Row
				i := lo
				for _, seg := range batchSegments(right.Batches, rOffs, lo, hi) {
					b := seg.b
					if rkp.needRow && len(scratch) < len(b.Cols) {
						//lint:ignore hotalloc guarded by the length check: every batch shares the schema, so this allocates once per morsel, not per segment
						scratch = make(value.Row, len(b.Cols))
					}
					for k := seg.lo; k < seg.hi; k++ {
						phys := b.RowIndex(k)
						if rkp.needRow {
							fillScratch(b, phys, scratch, rkp.fill)
						}
						vals := slab[:len(rightKeys):len(rightKeys)]
						slab = slab[len(rightKeys):]
						var h uint64 = 1469598103934665603
						hasNull := false
						for ki, ke := range rightKeys {
							var v value.Value
							if ord := rkp.cols[ki]; ord >= 0 && ord < len(b.Cols) {
								v = b.Cols[ord].Value(phys)
							} else {
								var err error
								if v, err = ke.Eval(scratch); err != nil {
									return err
								}
							}
							if v.IsNull() {
								hasNull = true
								break
							}
							vals[ki] = v
							h = h*1099511628211 ^ v.Hash()
						}
						if hasNull { // NULL keys never match
							bp.hasNull = true
						} else {
							rightVals[i] = vals
							bp.table[h] = append(bp.table[h], i)
						}
						i++
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					vals := slab[:len(rightKeys):len(rightKeys)]
					slab = slab[len(rightKeys):]
					var h uint64 = 1469598103934665603
					hasNull := false
					for k, ke := range rightKeys {
						v, err := ke.Eval(right.Rows[i])
						if err != nil {
							return err
						}
						if v.IsNull() {
							hasNull = true
							break
						}
						vals[k] = v
						h = h*1099511628211 ^ v.Hash()
					}
					if hasNull {
						bp.hasNull = true
						continue // NULL keys never match
					}
					rightVals[i] = vals
					bp.table[h] = append(bp.table[h], i)
				}
			}
			buildParts[m] = bp
			return nil
		})
		if err != nil {
			return nil, err
		}
		stats.NoteDispatch(nb, workers)
	}
	nullAware := kind == JoinAnti && j.NullAwareAnti && nRight > 0
	if nullAware {
		for _, bp := range buildParts {
			if bp.hasNull {
				return nil, nil // x NOT IN (…, NULL, …) is never true
			}
		}
	}

	// Probe phase: each morsel emits its rows independently; outputs
	// concatenate in morsel order. probeMatches runs the shared match-emit
	// sequence once the probe row's hash and key values are known. fillLeft
	// copies the probe row into a combined row and boxLeft returns it as an
	// output row of its own; both run only when the probe row contributes
	// to the output (or to a residual check).
	emitsCombined := kind == JoinInner || kind == JoinLeftOuter
	np := (nLeft + size - 1) / size
	outs := make([][]value.Row, np)
	if np > 0 {
		workers, err := pool.Run(ctx, np, j.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := lo + size
			if hi > nLeft {
				hi = nLeft
			}
			// Probe rows emit at least no rows and usually about one; hi-lo
			// is the right capacity order. vals is scratch, reused per row —
			// matches copy from the row slices, never from vals. check is
			// the combined-row scratch a semi/anti residual is evaluated on.
			out := make([]value.Row, 0, hi-lo)
			vals := make([]value.Value, len(leftKeys))
			var check value.Row
			probeMatches := func(h uint64, hasNull bool, lw int, fillLeft func(dst value.Row), boxLeft func() value.Row) error {
				matched := false
				if !hasNull {
				scan:
					for _, bp := range buildParts {
						for _, ri := range bp.table[h] {
							rv := rightVals[ri]
							eq := true
							for k := range vals {
								if value.Compare(vals[k], rv[k]) != 0 {
									eq = false
									break
								}
							}
							if !eq {
								continue
							}
							var combined value.Row
							switch {
							case emitsCombined:
								combined = make(value.Row, lw+rightWidth)
							case residual != nil:
								if len(check) < lw+rightWidth {
									//lint:ignore hotalloc guarded by the length check: every probe row has the same width, so this allocates once per morsel
									check = make(value.Row, lw+rightWidth)
								}
								combined = check[:lw+rightWidth]
							}
							if combined != nil {
								fillLeft(combined[:lw])
								right.fillRow(ri, combined[lw:], rOffs)
							}
							if residual != nil {
								keep, err := expr.Truthy(residual, combined)
								if err != nil {
									return err
								}
								if !keep {
									continue
								}
							}
							matched = true
							if !emitsCombined {
								break scan // one match decides a semi/anti row
							}
							out = append(out, combined)
						}
					}
				}
				switch {
				case kind == JoinLeftOuter && !matched:
					combined := make(value.Row, lw+rightWidth)
					fillLeft(combined[:lw])
					for i := 0; i < rightWidth; i++ {
						combined[lw+i] = value.Null
					}
					out = append(out, combined)
				case kind == JoinSemi && matched,
					kind == JoinAnti && !matched && !(nullAware && hasNull):
					out = append(out, boxLeft())
				}
				return nil
			}
			if left.Batches != nil {
				var scratch value.Row
				var fb *value.Batch // fillLeft captures fb/fphys, not loop vars
				var fphys int
				fillLeft := func(dst value.Row) { fb.FillRow(fphys, dst) }
				boxLeft := func() value.Row {
					row := make(value.Row, len(fb.Cols))
					fb.FillRow(fphys, row)
					return row
				}
				for _, seg := range batchSegments(left.Batches, lOffs, lo, hi) {
					b := seg.b
					if lkp.needRow && len(scratch) < len(b.Cols) {
						//lint:ignore hotalloc guarded by the length check: every batch shares the schema, so this allocates once per morsel, not per segment
						scratch = make(value.Row, len(b.Cols))
					}
					for k := seg.lo; k < seg.hi; k++ {
						phys := b.RowIndex(k)
						if lkp.needRow {
							fillScratch(b, phys, scratch, lkp.fill)
						}
						var h uint64 = 1469598103934665603
						hasNull := false
						for ki, ke := range leftKeys {
							var v value.Value
							if ord := lkp.cols[ki]; ord >= 0 && ord < len(b.Cols) {
								v = b.Cols[ord].Value(phys)
							} else {
								var err error
								if v, err = ke.Eval(scratch); err != nil {
									return err
								}
							}
							if v.IsNull() {
								hasNull = true
								break
							}
							vals[ki] = v
							h = h*1099511628211 ^ v.Hash()
						}
						fb, fphys = b, phys
						if err := probeMatches(h, hasNull, len(b.Cols), fillLeft, boxLeft); err != nil {
							return err
						}
					}
				}
			} else {
				var lrow value.Row // fillLeft captures lrow, not the loop var
				fillLeft := func(dst value.Row) { copy(dst, lrow) }
				boxLeft := func() value.Row { return lrow }
				for li := lo; li < hi; li++ {
					l := left.Rows[li]
					var h uint64 = 1469598103934665603
					hasNull := false
					for k, ke := range leftKeys {
						v, err := ke.Eval(l)
						if err != nil {
							return err
						}
						if v.IsNull() {
							hasNull = true
							break
						}
						vals[k] = v
						h = h*1099511628211 ^ v.Hash()
					}
					lrow = l
					if err := probeMatches(h, hasNull, len(l), fillLeft, boxLeft); err != nil {
						return err
					}
				}
			}
			outs[m] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		stats.NoteDispatch(np, workers)
	}

	n := 0
	for _, o := range outs {
		n += len(o)
	}
	joined := make([]value.Row, 0, n)
	for _, o := range outs {
		joined = append(joined, o...)
	}
	return joined, nil
}

// NestedLoopJoin joins without equality keys (general predicates, cross
// joins). The right side is materialized once.
type NestedLoopJoin struct {
	Kind  JoinKind
	Left  Iter
	Right Iter
	On    expr.Expr // bound to concatenated schema; nil = cross product

	out        *value.Schema
	right      []value.Row
	built      bool
	cur        value.Row
	ri         int
	curMatched bool
	buf        value.Row
}

// Schema implements Iter.
func (n *NestedLoopJoin) Schema() *value.Schema {
	if n.out == nil {
		switch n.Kind {
		case JoinSemi, JoinAnti:
			n.out = n.Left.Schema()
		default:
			n.out = n.Left.Schema().Concat(n.Right.Schema())
		}
	}
	return n.out
}

// Next implements Iter.
func (n *NestedLoopJoin) Next() (value.Row, bool, error) {
	if !n.built {
		rows, err := Materialize(n.Right)
		if err != nil {
			return nil, false, err
		}
		n.right = rows.Data
		n.built = true
		n.buf = make(value.Row, n.Left.Schema().Len()+n.Right.Schema().Len())
		n.ri = len(n.right) // force fetch of first left row
	}
	for {
		if n.ri >= len(n.right) {
			// advance to next left row
			if n.cur != nil && n.Kind == JoinLeftOuter && !n.curMatched {
				row := n.combineNullRight(n.cur)
				n.cur = nil
				return row, true, nil
			}
			if n.cur != nil && n.Kind == JoinAnti && !n.curMatched {
				row := n.cur
				n.cur = nil
				return row, true, nil
			}
			left, ok, err := n.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur = left.Clone()
			n.ri = 0
			n.curMatched = false
			continue
		}
		right := n.right[n.ri]
		n.ri++
		combined := n.combine(n.cur, right)
		match := true
		if n.On != nil {
			var err error
			match, err = expr.Truthy(n.On, combined)
			if err != nil {
				return nil, false, err
			}
		}
		if !match {
			continue
		}
		n.curMatched = true
		switch n.Kind {
		case JoinInner, JoinLeftOuter:
			return combined, true, nil
		case JoinSemi:
			n.ri = len(n.right)
			return n.cur, true, nil
		case JoinAnti:
			n.ri = len(n.right) // matched ⇒ skip this left row
		}
	}
}

func (n *NestedLoopJoin) combine(left, right value.Row) value.Row {
	copy(n.buf, left)
	copy(n.buf[len(left):], right)
	return n.buf[:len(left)+len(right)]
}

func (n *NestedLoopJoin) combineNullRight(left value.Row) value.Row {
	copy(n.buf, left)
	w := n.Right.Schema().Len()
	for i := 0; i < w; i++ {
		n.buf[len(left)+i] = value.Null
	}
	return n.buf[:len(left)+w]
}

// String names a join kind for plan display.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeftOuter:
		return "LEFT OUTER"
	case JoinSemi:
		return "SEMI"
	case JoinAnti:
		return "ANTI"
	}
	return fmt.Sprintf("JoinKind(%d)", int(k))
}
