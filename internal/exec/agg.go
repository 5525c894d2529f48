package exec

import (
	"context"
	"fmt"
	"math"

	"hana/internal/expr"
	"hana/internal/value"
)

// AggSpec describes one aggregate output: FuncName(Arg) with optional
// DISTINCT. Arg nil means COUNT(*).
type AggSpec struct {
	Func     string
	Arg      expr.Expr // bound to the input schema; nil for COUNT(*)
	Distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count   int64
	sum     float64
	sumI    int64
	intOnly bool
	min     value.Value
	max     value.Value
	sumSq   float64
	seen    map[value.Value]bool // DISTINCT
	order   []value.Value        // DISTINCT values in first-seen order
	hasVal  bool
}

func newAggState(distinct bool) *aggState {
	s := &aggState{intOnly: true, min: value.Null, max: value.Null}
	if distinct {
		s.seen = map[value.Value]bool{}
	}
	return s
}

func (s *aggState) add(v value.Value) {
	if v.IsNull() {
		return
	}
	if s.seen != nil {
		if s.seen[v] {
			return
		}
		s.seen[v] = true
		s.order = append(s.order, v)
	}
	s.hasVal = true
	s.count++
	switch v.K {
	case value.KindInt:
		s.sumI += v.I
		s.sum += float64(v.I)
	case value.KindDouble:
		s.intOnly = false
		s.sum += v.F
	default:
		s.intOnly = false
	}
	s.sumSq += v.Float() * v.Float()
	if s.min.IsNull() || value.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || value.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// merge folds another partial state for the same group into s. DISTINCT
// states replay the other side's values in their first-seen order, so a
// chain of merges in morsel order reproduces exactly the state a serial
// pass over the concatenated input would build. Plain states combine their
// running sums, which is also order-independent only across morsel
// boundaries — the per-morsel partials themselves are fixed by the morsel
// boundaries, so the merged result is identical at any worker count.
func (s *aggState) merge(o *aggState) {
	if s.seen != nil {
		for _, v := range o.order {
			s.add(v)
		}
		return
	}
	if o.count == 0 && !o.hasVal {
		return
	}
	s.hasVal = s.hasVal || o.hasVal
	s.count += o.count
	s.sumI += o.sumI
	s.sum += o.sum
	s.sumSq += o.sumSq
	s.intOnly = s.intOnly && o.intOnly
	if !o.min.IsNull() && (s.min.IsNull() || value.Compare(o.min, s.min) < 0) {
		s.min = o.min
	}
	if !o.max.IsNull() && (s.max.IsNull() || value.Compare(o.max, s.max) > 0) {
		s.max = o.max
	}
}

func (s *aggState) result(fn string) (value.Value, error) {
	switch fn {
	case "COUNT":
		return value.NewInt(s.count), nil
	case "SUM":
		if !s.hasVal {
			return value.Null, nil
		}
		if s.intOnly {
			return value.NewInt(s.sumI), nil
		}
		return value.NewDouble(s.sum), nil
	case "AVG":
		if s.count == 0 {
			return value.Null, nil
		}
		return value.NewDouble(s.sum / float64(s.count)), nil
	case "MIN":
		return s.min, nil
	case "MAX":
		return s.max, nil
	case "VAR":
		if s.count < 2 {
			return value.Null, nil
		}
		mean := s.sum / float64(s.count)
		return value.NewDouble(s.sumSq/float64(s.count) - mean*mean), nil
	case "STDDEV":
		if s.count < 2 {
			return value.Null, nil
		}
		mean := s.sum / float64(s.count)
		return value.NewDouble(math.Sqrt(math.Max(0, s.sumSq/float64(s.count)-mean*mean))), nil
	}
	return value.Null, fmt.Errorf("unknown aggregate %s", fn)
}

// HashAggregate groups by the bound GroupBy expressions and computes Aggs.
// The output schema is [group cols…, agg results…] with the provided
// column names. With no group-by expressions it produces the single global
// group (even for empty input, per SQL).
//
// Execution is morsel-driven: the input is collected (batch producers keep
// their columnar form), split into fixed-size morsels, aggregated into
// per-morsel partial group tables on the pool's workers, and merged at a
// barrier in morsel order. Group output order is the first-seen order of
// the input, and the result is byte-identical at any width. A nil Pool
// runs every morsel inline on the calling goroutine.
type HashAggregate struct {
	In      Iter
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Out     *value.Schema

	Pool  *Pool
	Ctx   context.Context
	Width int
	// MorselSize overrides DefaultMorselSize (tests); 0 = default.
	MorselSize int
	Stats      *Counters

	done   bool
	groups []value.Row
	i      int
}

// Schema implements Iter.
func (h *HashAggregate) Schema() *value.Schema { return h.Out }

type aggGroup struct {
	key    value.Row
	states []*aggState
}

// Next implements Iter.
func (h *HashAggregate) Next() (value.Row, bool, error) {
	if !h.done {
		if err := h.run(); err != nil {
			return nil, false, err
		}
	}
	if h.i >= len(h.groups) {
		return nil, false, nil
	}
	r := h.groups[h.i]
	h.i++
	return r, true, nil
}

// aggPartial is one morsel's (or the merged) group table. hashes is aligned
// with order so the merge never re-evaluates group-by expressions.
type aggPartial struct {
	table  map[uint64][]*aggGroup
	order  []*aggGroup
	hashes []uint64
}

func (h *HashAggregate) run() error {
	ctx := h.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pool := h.Pool
	if pool == nil {
		pool = NewPool(1)
	}
	// Batch producers keep their columnar form: the morsels below read keys
	// and arguments straight from the vectors. Anything else is
	// materialized as rows.
	var (
		data []value.Row
		bs   []*value.Batch
		offs []int
		bpl  batchAggPlan
	)
	if bi, ok := h.In.(BatchIter); ok {
		var err error
		if bs, err = collectBatches(bi); err != nil {
			return err
		}
		offs = batchOffsets(bs)
		bpl = planBatchAgg(h.GroupBy, h.Aggs)
	} else {
		var err error
		if data, err = drainRows(h.In); err != nil {
			return err
		}
	}
	total := len(data)
	if bs != nil {
		total = offs[len(bs)]
	}
	size := h.MorselSize
	if size <= 0 {
		size = DefaultMorselSize
	}
	keyOrds := make([]int, len(h.GroupBy))
	for i := range keyOrds {
		keyOrds[i] = i
	}

	nm := (total + size - 1) / size
	partials := make([]*aggPartial, nm)
	if nm > 0 {
		workers, err := pool.Run(ctx, nm, h.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := lo + size
			if hi > total {
				hi = total
			}
			var pt *aggPartial
			var err error
			if bs != nil {
				pt, err = aggregateBatchMorsel(batchSegments(bs, offs, lo, hi), h.GroupBy, h.Aggs, keyOrds, bpl)
			} else {
				pt, err = aggregateMorsel(data[lo:hi], h.GroupBy, h.Aggs, keyOrds)
			}
			if err != nil {
				return err
			}
			partials[m] = pt
			return nil
		})
		if err != nil {
			return err
		}
		h.Stats.NoteDispatch(nm, workers)
	}

	// Barrier: merge partial tables in morsel order. A group's first
	// appearance across morsels matches its first appearance in the input,
	// so the merged order equals the serial first-seen order.
	merged := &aggPartial{table: map[uint64][]*aggGroup{}}
	for _, pt := range partials {
		for gi, g := range pt.order {
			hsh := pt.hashes[gi]
			var dst *aggGroup
			for _, cand := range merged.table[hsh] {
				if cand.key.EqualAt(g.key, keyOrds, keyOrds) {
					dst = cand
					break
				}
			}
			if dst == nil {
				merged.table[hsh] = append(merged.table[hsh], g)
				merged.order = append(merged.order, g)
				merged.hashes = append(merged.hashes, hsh)
				continue
			}
			for i := range dst.states {
				dst.states[i].merge(g.states[i])
			}
		}
	}

	order := merged.order
	if len(order) == 0 && len(h.GroupBy) == 0 {
		// Global aggregate over empty input still yields one row.
		g := &aggGroup{}
		for _, a := range h.Aggs {
			g.states = append(g.states, newAggState(a.Distinct))
		}
		order = append(order, g)
	}
	for _, g := range order {
		out := make(value.Row, 0, len(g.key)+len(h.Aggs))
		out = append(out, g.key...)
		for i, a := range h.Aggs {
			v, err := g.states[i].result(a.Func)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		h.groups = append(h.groups, out)
	}
	h.done = true
	return nil
}

// aggregateMorsel builds one morsel's partial group table from a row range.
func aggregateMorsel(rows []value.Row, groupBy []expr.Expr, aggs []AggSpec, keyOrds []int) (*aggPartial, error) {
	pt := &aggPartial{table: map[uint64][]*aggGroup{}}
	// Scratch key buffer, reused across rows; only Clone() on a fresh group
	// retains the values.
	key := make(value.Row, len(groupBy))
	for _, row := range rows {
		for i, g := range groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		hsh := key.Hash(keyOrds)
		var grp *aggGroup
		for _, g := range pt.table[hsh] {
			if key.EqualAt(g.key, keyOrds, keyOrds) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &aggGroup{key: key.Clone()}
			for _, a := range aggs {
				grp.states = append(grp.states, newAggState(a.Distinct))
			}
			pt.table[hsh] = append(pt.table[hsh], grp)
			pt.order = append(pt.order, grp)
			pt.hashes = append(pt.hashes, hsh)
		}
		for i, a := range aggs {
			if a.Arg == nil { // COUNT(*)
				grp.states[i].count++
				grp.states[i].hasVal = true
				continue
			}
			v, err := a.Arg.Eval(row)
			if err != nil {
				return nil, err
			}
			grp.states[i].add(v)
		}
	}
	return pt, nil
}
