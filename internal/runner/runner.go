// Package runner is the repository's single job-execution engine: a
// deterministic bounded worker pool that every multi-run driver (study
// cells, cmd fan-out) builds on instead of growing its own goroutine
// plumbing.
//
// Guarantees:
//
//   - Ordered result slots: job i's result lands at index i, so output
//     is byte-identical regardless of completion order or worker count.
//   - Context cancellation and deadlines: queued jobs never start after
//     ctx is done, and each job receives a ctx it should poll.
//   - First-error cancellation: the first job error cancels the shared
//     context, so in-flight jobs can stop early and queued jobs are
//     skipped entirely.
//   - Panic containment: a panicking job becomes an error carrying the
//     panic value and stack instead of crashing the process.
package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is the error a recovered job panic is converted into.
type PanicError struct {
	Index int    // index of the panicking job
	Value any    // the value passed to panic
	Stack string // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Map executes fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (below 2: serially on the calling goroutine) and returns
// the results in ordered slots with the first error (a job error, a
// recovered panic, or ctx.Err() if the context ended first). On the
// first failure the context passed to jobs is cancelled and no queued
// job starts. The returned slice always has length n, with slot i
// holding job i's result; on error it still carries every result
// completed before cancellation (unfinished slots hold T's zero
// value), so interrupted batches can report partial output.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	workers = min(workers, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	b := &batch[T]{
		ctx:     ctx,
		cancel:  cancel,
		fn:      fn,
		results: results,
		total:   n,
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			if !b.runJob(i) {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, ok := b.next()
					if !ok {
						return
					}
					if !b.runJob(i) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	b.mu.Lock()
	err := b.err
	b.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	return results, err
}

// batch is the shared state of one Map invocation.
type batch[T any] struct {
	ctx     context.Context
	cancel  context.CancelFunc
	fn      func(context.Context, int) (T, error)
	results []T
	total   int

	mu      sync.Mutex
	nextJob int   // next job index to hand out
	err     error // first failure
}

// next hands out the next job index, refusing once the batch is
// cancelled or exhausted.
func (b *batch[T]) next() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil || b.ctx.Err() != nil || b.nextJob >= b.total {
		return 0, false
	}
	i := b.nextJob
	b.nextJob++
	return i, true
}

// runJob executes one job with panic containment and reports whether
// the batch should continue.
func (b *batch[T]) runJob(i int) bool {
	if b.ctx.Err() != nil {
		b.fail(b.ctx.Err())
		return false
	}
	res, err := b.call(i)
	b.mu.Lock()
	if err != nil {
		if b.err == nil {
			b.err = err
			b.cancel()
		}
		b.mu.Unlock()
		return false
	}
	b.results[i] = res
	b.mu.Unlock()
	return true
}

// fail records err as the batch error if none is set yet.
func (b *batch[T]) fail(err error) {
	b.mu.Lock()
	if b.err == nil && err != nil {
		b.err = err
		b.cancel()
	}
	b.mu.Unlock()
}

// call invokes the job function, converting a panic into *PanicError.
func (b *batch[T]) call(i int) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return b.fn(b.ctx, i)
}
