package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/client"
	"camouflage/internal/obs"
)

// queueWaitHist observes how long admitted jobs spent waiting for a
// slot (rejected and cancelled requests are not observed — they never
// ran).
var queueWaitHist = obs.NewHistogram("camouflage_server_queue_wait_seconds",
	"Time admitted jobs spent waiting for an execution slot.", obs.DefaultLatencyBuckets)

// errBusy rejects work when the wait line is full — the daemon sheds
// load instead of queueing unboundedly (503 on the wire).
var errBusy = errors.New("server: work queue full")

// queue is the daemon's bounded admission layer: Capacity jobs run
// concurrently, at most MaxQueue more wait for a slot, anything beyond
// that is rejected immediately. Admission is slots only; boot dedup
// lives in the pool: concurrent jobs for one cold key block on the
// pool's once-per-key arming and then fan out as copy-on-write forks.
type queue struct {
	slots    chan struct{}
	maxQueue int
	// inSystem counts admitted jobs (waiting + running); running counts
	// slot holders. Waiting depth is the difference.
	inSystem atomic.Int64
	running  atomic.Int64
	// starts counts jobs that ever began running. Together with running
	// it lets a handler prove it ran alone: running == 1 on entry and no
	// new starts by exit means no other job overlapped it (the basis for
	// serving exact per-run counter attribution).
	starts atomic.Uint64
}

func newQueue(capacity, maxQueue int) *queue {
	return &queue{slots: make(chan struct{}, capacity), maxQueue: maxQueue}
}

// acquire admits one job: it fails fast with errBusy when the wait line
// is full, waits for a slot otherwise, and gives up with ctx.Err() if
// the request deadline expires first. The returned release must be
// called exactly once.
func (q *queue) acquire(ctx context.Context) (release func(), err error) {
	if int(q.inSystem.Add(1)) > q.maxQueue+cap(q.slots) {
		q.inSystem.Add(-1)
		obs.Add(obs.CQueueRejected, 1)
		return nil, errBusy
	}
	t0 := time.Now()
	select {
	case q.slots <- struct{}{}:
	case <-ctx.Done():
		q.inSystem.Add(-1)
		return nil, ctx.Err()
	}
	queueWaitHist.ObserveSince(t0)
	q.running.Add(1)
	q.starts.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			q.running.Add(-1)
			q.inSystem.Add(-1)
			<-q.slots
		})
	}, nil
}

// stats snapshots the queue for /v1/stats.
func (q *queue) stats() client.QueueStats {
	depth := int(q.inSystem.Load()) - int(q.running.Load())
	if depth < 0 {
		depth = 0
	}
	return client.QueueStats{
		Depth:    depth,
		Running:  int(q.running.Load()),
		Capacity: cap(q.slots),
		MaxQueue: q.maxQueue,
	}
}
