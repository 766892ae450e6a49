package service

import (
	"context"
	"fmt"
	"io"
	"iter"
	"time"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/obs"
)

// This file is the one engine every operation runs on. An operation
// (derive, calibrate, allocate) is a single row function; pipeline runs it
// across a bounded conc.StreamOrdered pool and hands the answers, in input
// order, to a sink. A stream feeds the pipeline from its request lines and
// sinks into the wire (runStream); a buffered endpoint validates its batch
// up front, feeds the validated slice and sinks into a collector (collect).
// Both framings therefore agree by construction.

// rowFunc is an operation's row function: it answers the decoded input line
// at index i. Lines that failed to decode never reach it.
type rowFunc[T, R any] func(ctx context.Context, i int, spec *T) (R, error)

// result is one row's answer: the value or the error replacing it.
type result[R any] struct {
	index int
	val   R
	err   error
}

// pipeline runs fn over src and calls sink with every answer in input
// order. A panicking row (a validation gap on adversarial input, a shape
// panic in internal/mat) fails only that row, with an *internalError the
// buffered endpoints answer 500 for. pipeline returns ctx.Err() when the
// context expired and sink's error when the sink failed.
func pipeline[T, R any](ctx context.Context, workers, window int, src iter.Seq[Line[T]],
	fn rowFunc[T, R], sink func(result[R]) error) error {
	return conc.StreamOrdered(ctx, workers, window, src,
		func(ctx context.Context, _ int, ln Line[T]) (res result[R]) {
			res.index = ln.Index
			if ln.Err != nil {
				res.err = ln.Err
				return res
			}
			defer func() {
				if r := recover(); r != nil {
					var zero R
					res.val, res.err = zero, &internalError{fmt.Errorf("internal error: %v", r)}
				}
			}()
			res.val, res.err = fn(ctx, ln.Index, ln.Val)
			return res
		},
		func(_ int, res result[R]) error { return sink(res) })
}

// runStream is the NDJSON framing: one T per request line of r (duplicate
// names rejected when name is non-nil), one wire row per answer written to
// w in input order, O(workers + window) rows in flight. Per-line failures
// become error rows; a ctx expiry or a write failure stops the stream and
// is returned.
func runStream[T, R, W any](ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions,
	name func(*T) string, fn rowFunc[T, R], wire func(result[R]) W) (StreamStats, error) {
	var stats StreamStats
	tr := obs.FromContext(ctx)
	src := countingSource[T](r, opts.MaxLine, &stats, tr)
	if name != nil {
		src = uniqueNames(src, name)
	}
	encode := encodeSink[W](w, &stats, tr)
	err := pipeline(ctx, opts.Workers, opts.window(effectiveWorkers(opts.Workers)), src, fn,
		func(res result[R]) error { return encode(wire(res)) })
	return stats, err
}

// collect is the buffered framing: fn over an already-validated batch, the
// answers gathered in input order, at most one worker per row. A context
// expiry is returned alone; otherwise errs holds each row's failure (nil
// where it answered) for the caller to aggregate. The reorder window spans
// the batch, which is in memory anyway, so a slow row never holds back the
// dispatch of the rest.
func collect[T, R any](ctx context.Context, workers int, items []T, fn rowFunc[T, R]) (vals []R, errs []error, err error) {
	vals, errs = make([]R, len(items)), make([]error, len(items))
	workers = max(1, min(effectiveWorkers(workers), len(items)))
	err = pipeline(ctx, workers, len(items), lines(items), fn, func(res result[R]) error {
		vals[res.index], errs[res.index] = res.val, res.err
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, errs, nil
}

// lines is the buffered pipeline source: one Line per item of the batch.
func lines[T any](items []T) iter.Seq[Line[T]] {
	return func(yield func(Line[T]) bool) {
		for i := range items {
			if !yield(Line[T]{Index: i, Val: &items[i]}) {
				return
			}
		}
	}
}

// countingSource decodes one T per NDJSON line of r, counting rows into
// stats.
func countingSource[T any](r io.Reader, maxLine int64, stats *StreamStats, tr *obs.Trace) iter.Seq[Line[T]] {
	return func(yield func(Line[T]) bool) {
		for ln := range decodeLines[T](r, maxLine, tr) {
			stats.RowsIn++
			if !yield(ln) {
				return
			}
		}
	}
}

// uniqueNames turns a line repeating an earlier line's app name into an
// error line. It runs in the (sequential) source iterator, so no locking.
// Error lines keep their name slot: only successfully decoded specs claim a
// name. The seen set is the one per-row retention of a stream — names only,
// not rows or results. The buffered endpoints validate their batch through
// the same source, so both framings reject exactly the same lines.
func uniqueNames[T any](src iter.Seq[Line[T]], name func(*T) string) iter.Seq[Line[T]] {
	seen := make(map[string]bool)
	return func(yield func(Line[T]) bool) {
		for ln := range src {
			if ln.Val != nil {
				if n := name(ln.Val); seen[n] {
					ln = Line[T]{Index: ln.Index, Err: &RequestError{
						App: n, Err: fmt.Errorf("duplicate app name %q", n)}}
				} else {
					seen[n] = true
				}
			}
			if !yield(ln) {
				return
			}
		}
	}
}

// encodeSink writes result rows to w, counting each into stats and the
// row's encode+write time into the trace's encode stage. The write is
// included deliberately: a slow client throttling the stream through flow
// control shows up here, which is exactly the question "where does stream
// time go" asks.
func encodeSink[W any](w io.Writer, stats *StreamStats, tr *obs.Trace) func(W) error {
	return func(row W) error {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if err := EncodeResult(w, row); err != nil {
			return err
		}
		if tr != nil {
			tr.StageSince(obs.StageEncode, t0)
		}
		stats.RowsOut++
		return nil
	}
}
