package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-at-a-time execution (ROADMAP item 2). BatchIter is the primary
// operator interface: operators exchange value.Batch columnar batches —
// typed vectors plus a selection vector — and only materialize value.Row
// slices at the edges (aggregation/join barriers, final result sets). Every
// batch operator also implements the legacy row Iter, materializing its
// batches lazily, so row-oriented operators compose with batch producers
// unchanged. Batches are morsel-sized and flow in morsel order, which keeps
// the byte-identical-at-any-width determinism contract: the rows a batch
// pipeline materializes are exactly the rows the row pipeline produces, in
// the same order.
type BatchIter interface {
	// Schema describes the rows the batches decode to.
	Schema() *value.Schema
	// NextBatch returns the next batch, or nil when exhausted. Returned
	// batches may share payload arrays with the producer and must be
	// treated as immutable except for the selection vector, which the
	// consumer owns and may refine in place.
	NextBatch() (*value.Batch, error)
}

// batchRows adapts NextBatch streams to row-at-a-time Next calls.
type batchRows struct {
	rows []value.Row
	i    int
}

func (br *batchRows) next(in BatchIter) (value.Row, bool, error) {
	for br.i >= len(br.rows) {
		b, err := in.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		br.rows, br.i = b.MaterializeRows(), 0
	}
	r := br.rows[br.i]
	br.i++
	return r, true, nil
}

// BatchSlice iterates a materialized list of batches — the batch
// counterpart of Slice, and the executor input for vectorized scans.
type BatchSlice struct {
	S  *value.Schema
	Bs []*value.Batch
	i  int
	br batchRows
}

// NewBatchSlice builds a BatchSlice iterator.
func NewBatchSlice(s *value.Schema, bs []*value.Batch) *BatchSlice {
	return &BatchSlice{S: s, Bs: bs}
}

// Schema implements BatchIter and Iter.
func (s *BatchSlice) Schema() *value.Schema { return s.S }

// NextBatch implements BatchIter.
func (s *BatchSlice) NextBatch() (*value.Batch, error) {
	if s.i >= len(s.Bs) {
		return nil, nil
	}
	b := s.Bs[s.i]
	s.i++
	return b, nil
}

// Next implements Iter by materializing batches lazily.
func (s *BatchSlice) Next() (value.Row, bool, error) { return s.br.next(s) }

// BatchFilter refines each batch's selection vector through the vectorized
// predicate path; batches whose selection empties out are skipped. It is
// the batch counterpart of the row filter.
type BatchFilter struct {
	In   BatchIter
	Pred expr.Expr
	br   batchRows
}

// Schema implements BatchIter and Iter.
func (f *BatchFilter) Schema() *value.Schema { return f.In.Schema() }

// NextBatch implements BatchIter.
func (f *BatchFilter) NextBatch() (*value.Batch, error) {
	for {
		b, err := f.In.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := expr.SelectBatch(f.Pred, b); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// Next implements Iter.
func (f *BatchFilter) Next() (value.Row, bool, error) { return f.br.next(f) }

// BatchProject evaluates projection expressions per batch, sharing column
// vectors for bare column references and falling back to the row-exact Eval
// path otherwise. It is the batch counterpart of the row project.
type BatchProject struct {
	In    BatchIter
	Exprs []expr.Expr
	Out   *value.Schema
	br    batchRows
}

// Schema implements BatchIter and Iter.
func (p *BatchProject) Schema() *value.Schema { return p.Out }

// NextBatch implements BatchIter.
func (p *BatchProject) NextBatch() (*value.Batch, error) {
	b, err := p.In.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	out := &value.Batch{Schema: p.Out, Cols: make([]value.Vec, len(p.Exprs)), N: b.Len()}
	for i, e := range p.Exprs {
		v, err := expr.EvalBatch(e, b)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = v
	}
	return out, nil
}

// Next implements Iter.
func (p *BatchProject) Next() (value.Row, bool, error) { return p.br.next(p) }

// FilterIter builds the preferred filter operator for an input: the
// vectorized BatchFilter when the input produces batches, the row filter
// otherwise. Both keep exactly the rows for which pred is genuinely true,
// in input order.
func FilterIter(in Iter, pred expr.Expr) Iter {
	if b, ok := in.(BatchIter); ok {
		return &BatchFilter{In: b, Pred: pred}
	}
	return &filter{In: in, Pred: pred}
}

// ProjectIter builds the preferred projection operator for an input, batch
// or row depending on what the input produces.
func ProjectIter(in Iter, exprs []expr.Expr, out *value.Schema) Iter {
	if b, ok := in.(BatchIter); ok {
		return &BatchProject{In: b, Exprs: exprs, Out: out}
	}
	return &project{In: in, Exprs: exprs, Out: out}
}

// drainBatchRows materializes every remaining batch of a producer into one
// row slice (used by the barrier operators: aggregation and join inputs).
func drainBatchRows(in BatchIter) ([]value.Row, error) {
	var out []value.Row
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		//lint:ignore hotalloc out grows once per batch, not per row; the producer's batch count is unknown upfront
		out = append(out, b.MaterializeRows()...)
	}
}
