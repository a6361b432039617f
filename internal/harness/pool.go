package harness

import (
	"context"

	"lcm/internal/obsv"
	"lcm/internal/workpool"
)

// ForEach runs job(0), …, job(n-1) over at most workers goroutines. It
// delegates to workpool.ForEach, the shared bounded pool, and keeps its
// determinism and fault-tolerance contract: index-addressed results
// reassembled in input order, recovered panics classified
// faults.ErrPanic, lowest-index error returned.
func ForEach(workers, n int, job func(i int) error) error {
	return workpool.ForEach(workers, n, job)
}

// ForEachCtx is ForEach under a context, returning per-item errors (nil
// entries are successes) instead of only the first one. See
// workpool.ForEachCtx for the cancellation semantics.
func ForEachCtx(ctx context.Context, workers, n int, job func(i int) error) []error {
	return workpool.ForEachCtx(ctx, workers, n, job)
}

// ForEachSpan is ForEach under an observability span: the pool's wall
// time is recorded as one child span of parent named name, and every job
// receives that span to parent its own per-function spans under. With a
// nil parent (tracing disabled) it degenerates to ForEach at no cost.
func ForEachSpan(parent *obsv.Span, name string, workers, n int, job func(i int, sp *obsv.Span) error) error {
	sp := parent.Start(name)
	defer sp.End()
	return ForEach(workers, n, func(i int) error { return job(i, sp) })
}

// ForEachSpanCtx is ForEachCtx under an observability span, with per-item
// errors. Campaign drivers (conform, chaos) use it so one canceled or
// panicking item degrades that item's verdict instead of the whole run.
func ForEachSpanCtx(ctx context.Context, parent *obsv.Span, name string, workers, n int, job func(i int, sp *obsv.Span) error) []error {
	sp := parent.Start(name)
	defer sp.End()
	return ForEachCtx(ctx, workers, n, func(i int) error { return job(i, sp) })
}
