package snapshot

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f with GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// overlapped runs ForEach over two indices, each of which waits up to
// wait for its sibling to begin, and reports whether they overlapped.
func overlapped(t *testing.T, wait time.Duration) bool {
	t.Helper()
	var running atomic.Int32
	var both atomic.Bool
	met := make(chan struct{})
	err := ForEach(context.Background(), 2, func(int) error {
		if running.Add(1) == 2 {
			close(met)
		}
		defer running.Add(-1)
		select {
		case <-met:
			both.Store(true)
		case <-time.After(wait):
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return both.Load()
}

// TestForEachFansOutOnlyWithSeveralPs: two indices overlap at 4 Ps and
// never at 1 P. At 4 Ps each call waits for its sibling to begin, so a
// loop that stayed sequential fails after the wait instead of passing.
func TestForEachFansOutOnlyWithSeveralPs(t *testing.T) {
	for _, tc := range []struct {
		procs int
		wait  time.Duration
		want  bool
	}{{1, 20 * time.Millisecond, false}, {4, 10 * time.Second, true}} {
		atProcs(tc.procs, func() {
			if got := overlapped(t, tc.wait); got != tc.want {
				t.Errorf("GOMAXPROCS %d: calls overlapped = %v, want %v", tc.procs, got, tc.want)
			}
		})
	}
	if n := cellWorkers.Load(); n != 0 {
		t.Errorf("%d cell workers still counted after every loop returned", n)
	}
}

// TestForEachLeavesBusyPsAlone: a loop that starts while other loops
// already run a cell on every P recruits no helper and runs in order,
// and once those cells end the next loop fans out again. So concurrent
// daemon jobs keep about one live cell machine each instead of a
// worker pool each.
func TestForEachLeavesBusyPsAlone(t *testing.T) {
	atProcs(2, func() {
		started := make(chan struct{}, 2)
		release := make(chan struct{})
		done := make(chan error)
		go func() {
			done <- ForEach(context.Background(), 2, func(int) error {
				started <- struct{}{}
				<-release
				return nil
			})
		}()
		<-started
		<-started
		if overlapped(t, 20*time.Millisecond) {
			t.Error("a loop started while both Ps ran cells fanned out")
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !overlapped(t, 10*time.Second) {
			t.Error("a loop started on idle Ps ran in order")
		}
	})
}

// TestForEachContract holds the loop to one contract at 1 and 4 Ps, in
// order and fanned out: every index runs exactly once, the lowest-index
// error wins, after a cancel no call begins at 1 P and at most one per
// worker (a worker that checked ctx just before the cancel; a lone loop
// has one per P) at 4 Ps, and a cancel during the last call, after
// every index has started, is still reported.
func TestForEachContract(t *testing.T) {
	const n = 1000
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			calls := make([]atomic.Int32, n)
			if err := ForEach(context.Background(), n, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d: index %d ran %d times", procs, i, c)
				}
			}

			errAt := map[int]error{}
			for _, i := range []int{40, 60, 900} {
				errAt[i] = fmt.Errorf("index %d", i)
			}
			err := ForEach(context.Background(), n, func(i int) error { return errAt[i] })
			if !errors.Is(err, errAt[40]) {
				t.Errorf("GOMAXPROCS %d: ForEach = %v, want the error of index 40", procs, err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelled atomic.Bool
			var after atomic.Int32
			err = ForEach(ctx, n, func(i int) error {
				if cancelled.Load() {
					after.Add(1)
				}
				if i == 10 {
					cancel()
					cancelled.Store(true)
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("GOMAXPROCS %d: cancelled ForEach = %v, want context.Canceled", procs, err)
			}
			bound := int32(0)
			if procs > 1 {
				bound = int32(procs) // the worker count
			}
			if got := after.Load(); got > bound {
				t.Errorf("GOMAXPROCS %d: %d calls began after the cancel, want at most %d", procs, got, bound)
			}

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			err = ForEach(ctx, n, func(i int) error {
				if i == n-1 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("GOMAXPROCS %d: ForEach cancelled in its last call = %v, want context.Canceled", procs, err)
			}
		})
	}
}
