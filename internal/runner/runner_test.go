package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedSlots(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		got, err := Map(context.Background(), 50, workers,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		rows, err := Map(context.Background(), 20, workers,
			func(_ context.Context, i int) (string, error) {
				return fmt.Sprintf("row-%02d", i), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rows, "\n")
	}
	serial := render(1)
	for _, w := range []int{2, 8} {
		if par := render(w); par != serial {
			t.Errorf("workers=%d output differs from serial:\n%s\nvs\n%s", w, par, serial)
		}
	}
}

func TestFirstErrorCancelsQueuedJobs(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	const n, workers = 100, 4
	_, err := Map(context.Background(), n, workers,
		func(ctx context.Context, i int) (struct{}, error) {
			started.Add(1)
			if i == 0 {
				return struct{}{}, boom
			}
			// Every other job parks until the batch is cancelled, so no
			// worker can loop around and start extra jobs first.
			<-ctx.Done()
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := started.Load(); got > workers {
		t.Errorf("%d jobs started after first error; at most %d workers should have", got, workers)
	}
}

func TestSerialFirstErrorSkipsRest(t *testing.T) {
	var started int
	boom := errors.New("boom")
	_, err := Map(context.Background(), 10, 1,
		func(_ context.Context, i int) (struct{}, error) {
			started++
			if i == 2 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if started != 3 {
		t.Errorf("started = %d jobs, want 3 (0, 1, and the failing 2)", started)
	}
}

func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), 8, workers,
			func(_ context.Context, i int) (int, error) {
				if i == 3 {
					panic("kaboom")
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 || pe.Value != "kaboom" || pe.Stack == "" {
			t.Errorf("workers=%d: panic error = {%d %v stack:%d bytes}", workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

func TestContextCancellationStopsBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	var once sync.Once
	_, err := Map(ctx, 100, 2, func(ctx context.Context, i int) (struct{}, error) {
		done.Add(1)
		once.Do(cancel)
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := done.Load(); got > 3 {
		t.Errorf("%d jobs ran after cancellation", got)
	}
}

func TestDeadlineReported(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := Map(ctx, 10, 2, func(ctx context.Context, i int) (struct{}, error) {
		<-ctx.Done()
		return struct{}{}, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestPartialResultsSurviveError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Map(context.Background(), 5, 1,
		func(_ context.Context, i int) (string, error) {
			if i == 3 {
				return "", boom
			}
			return fmt.Sprintf("ok-%d", i), nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	want := []string{"ok-0", "ok-1", "ok-2", "", ""}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	got, err := Map(context.Background(), 0, 8,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}
