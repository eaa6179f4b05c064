package core

import (
	"strconv"

	"tcc/internal/collections"
	"tcc/internal/obs/metrics"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// TransactionalQueue wraps a Queue behind the util.concurrent Channel
// interface (Put/Offer/Take/Poll/Peek), trading strict FIFO isolation
// for concurrency as in paper §3.3: transactions that confine
// themselves to Put and Take never semantically conflict (Table 7).
//
// Reduced isolation, by design: Take and Poll remove elements from the
// underlying queue immediately (other transactions will not see — and
// cannot steal — them), with an abort handler returning them on
// rollback; Put buffers additions that a commit handler publishes. The
// only semantic lock is the empty lock (Table 8): a transaction that
// observed emptiness via a null Peek/Poll is aborted by a commit that
// makes the queue non-empty.
//
// # Lanes
//
// A queue built by NewSegmentedTransactionalQueue is split into L
// lanes, each fusing its own guard, committed sub-queue and empty-lock
// set — the segmented cousin of internal/concurrent's MSQueue, which
// gets its parallelism from separate head/tail CAS points; here the
// separation is whole lanes, so commit handler windows parallelize
// too. FIFO is semantic at lane granularity: elements of one lane
// leave in the order their transactions committed, but the queue makes
// no ordering promise between lanes — the same relaxation the paper's
// §3.3 makes for Put/Take commutativity, one level wider. Producers
// put into their thread-affine lane (LaneOf keys on Thread.TraceID),
// consumers drain their own lane first and steal from the others only
// when it is empty, so disjoint-lane traffic commits fully in
// parallel. Observing *global* emptiness (null Poll/Peek) takes every
// lane's empty lock, under every lane's guard (lockLanes, ascending
// id order — deadlock-free against the commit protocol's sorted
// footprint acquisition). NewTransactionalQueue builds one lane and
// is behaviorally identical to the pre-lane implementation.
type TransactionalQueue[T any] struct {
	// lanes has power-of-two length in [1, 64]; lane guard ids are
	// ascending in slice order (minted in order at construction).
	lanes []*queueLane[T]
	// mask is len(lanes)-1; 0 means single-lane.
	mask   uint64
	opCost uint64
	// name labels this instance in violation reasons.
	name           string
	reasonRefill   string
	reasonNotEmpty string
}

// queueLane is one lane: a committed sub-queue and its empty-lock set,
// fused with the lane's commit-guard shard (see TransactionalMap's
// mapStripe for the fusion idiom).
type queueLane[T any] struct {
	guard *stm.Guard
	// q holds the lane's committed state (Table 9: "the underlying
	// Queue instance").
	q collections.Queue[T]
	// emptyLockers is the shared transaction state of Table 9.
	emptyLockers *semlock.OwnerSet
	// violations counts semantic violations landed by this lane's
	// empty-lock sweeps (metrics plane; atomic-only, guard-window safe).
	violations *metrics.Counter
}

// queueLocal is the local transaction state of Table 9, per lane. Like
// mapLocal it is recycled through the thread and cleared in place by
// its handlers.
type queueLocal[T any] struct {
	addBuffers    [][]T
	removeBuffers [][]T
	// emptyLocked and touched are lane bitmasks: the lanes whose empty
	// lock this transaction holds, and the lanes in its guard
	// footprint (see mapLocal.touched for the footprint protocol).
	emptyLocked uint64
	touched     uint64
	registered  bool
	// h, th and the handler pair play the same roles as in mapLocal.
	h                 *stm.Handle
	th                *stm.Thread
	onCommit, onAbort func()
}

// reset clears the lanes in the footprint — the only ones whose
// buffers can be non-empty — and the lock and footprint state (see
// mapLocal.reset).
func (l *queueLocal[T]) reset() {
	for li := range l.addBuffers {
		if l.touched&(uint64(1)<<uint(li)) != 0 {
			l.addBuffers[li] = recycleBuffer(l.addBuffers[li])
			l.removeBuffers[li] = recycleBuffer(l.removeBuffers[li])
		}
	}
	l.emptyLocked, l.touched, l.registered = 0, 0, false
	l.h, l.th = nil, nil
}

// popFront removes and returns buf's first element, shifting the rest
// down so the buffer keeps its capacity for reuse. Buffers are a
// transaction's own additions to one lane — a handful of elements.
func popFront[T any](buf []T) (T, []T) {
	v := buf[0]
	copy(buf, buf[1:])
	var zero T
	buf[len(buf)-1] = zero
	return v, buf[:len(buf)-1]
}

func newQueueLane[T any](q collections.Queue[T]) *queueLane[T] {
	return &queueLane[T]{
		guard:        stm.NewGuard(),
		q:            q,
		emptyLockers: semlock.NewOwnerSet(),
	}
}

// NewTransactionalQueue wraps q; the wrapper assumes exclusive
// ownership. Because it adopts one existing structure it is
// single-lane; use NewSegmentedTransactionalQueue (which builds its
// own lanes) when endpoint traffic on one hot queue needs to scale.
func NewTransactionalQueue[T any](q collections.Queue[T]) *TransactionalQueue[T] {
	tq := &TransactionalQueue[T]{
		lanes:  []*queueLane[T]{newQueueLane(q)},
		opCost: DefaultOpCost,
	}
	tq.SetName("queue")
	return tq
}

// NewSegmentedTransactionalQueue creates a queue split into the given
// number of lanes (rounded up to a power of two, clamped to [1, 64];
// lanes <= 0 selects DefaultStripes). newLane is called once per lane
// to build that lane's committed sub-queue.
func NewSegmentedTransactionalQueue[T any](newLane func() collections.Queue[T], lanes int) *TransactionalQueue[T] {
	n := normalizeStripes(lanes)
	tq := &TransactionalQueue[T]{
		lanes:  make([]*queueLane[T], n),
		opCost: DefaultOpCost,
	}
	if n > 1 {
		tq.mask = uint64(n - 1)
	}
	for i := range tq.lanes {
		tq.lanes[i] = newQueueLane(newLane())
	}
	tq.SetName("queue")
	return tq
}

// SetName labels this instance in violation reasons for lost-work
// profiles. Segmented instances label each lane's guard "name.lane[i]"
// (the queue cousin of the map's "name.stripe[i]" convention).
func (tq *TransactionalQueue[T]) SetName(name string) {
	tq.name = name
	if len(tq.lanes) == 1 {
		tq.lanes[0].guard.SetLabel(name)
	} else {
		for i, ln := range tq.lanes {
			ln.guard.SetLabel(name + ".lane[" + strconv.Itoa(i) + "]")
		}
	}
	for i, ln := range tq.lanes {
		ln.violations = metrics.Default.Counter(metrics.CollectionViolations,
			"Semantic violations landed by this collection stripe's conflict sweeps",
			metrics.L("collection", name), metrics.L("stripe", strconv.Itoa(i)))
	}
	tq.reasonNotEmpty = name + ": no longer empty"
	tq.reasonRefill = name + ": refilled on abort"
}

// Name returns the label set by SetName.
func (tq *TransactionalQueue[T]) Name() string { return tq.name }

// Guard returns lane 0's commit guard — the instance guard of a
// single-lane queue. Code composing its own guarded handlers with a
// segmented queue should use LaneGuard for the lane it works with.
func (tq *TransactionalQueue[T]) Guard() *stm.Guard { return tq.lanes[0].guard }

// Lanes returns the number of lanes (1 unless built by
// NewSegmentedTransactionalQueue).
func (tq *TransactionalQueue[T]) Lanes() int { return len(tq.lanes) }

// LaneGuard returns the commit guard of lane li.
func (tq *TransactionalQueue[T]) LaneGuard(li int) *stm.Guard {
	return tq.lanes[li&int(tq.mask)].guard
}

// LaneOf returns the calling thread's affine lane: the lane Put
// targets and Poll/Take drain first. Keyed on Thread.TraceID (the
// harness sets it to the worker's CPU id), so each worker sticks to
// one lane and disjoint workers need never share an endpoint.
func (tq *TransactionalQueue[T]) LaneOf(tx *stm.Tx) int {
	return int(uint64(tx.Thread().TraceID) & tq.mask)
}

// SetOpCost overrides the abstract cycle cost charged per operation.
func (tq *TransactionalQueue[T]) SetOpCost(c uint64) { tq.opCost = c }

// lockLanes locks every lane guard, in ascending guard-id order (slice
// order) — whole-queue answers (global emptiness, CommittedSize) need
// all lanes pinned at once, and the ascending order keeps the hold
// compatible with the commit protocol's sorted footprint acquisition.
// stmlint classifies a lockLanes call as opening a commit-guard hold
// window.
func (tq *TransactionalQueue[T]) lockLanes() {
	for _, ln := range tq.lanes {
		ln.guard.Lock()
	}
}

// unlockLanes unlocks every lane guard (closing the hold window).
func (tq *TransactionalQueue[T]) unlockLanes() {
	for _, ln := range tq.lanes {
		ln.guard.Unlock()
	}
}

// local returns this transaction's local state for this instance,
// creating it on first use. Single-lane instances register the handler
// pair immediately; segmented ones defer to the first touch so the
// footprint starts with the lane actually used (see
// TransactionalMap.local).
func (tq *TransactionalQueue[T]) local(tx *stm.Tx) *queueLocal[T] {
	if l, ok := tx.Local(tq).(*queueLocal[T]); ok {
		return l
	}
	th := tx.Thread()
	l, _ := th.Recycled(tq).(*queueLocal[T])
	if l == nil {
		l = tq.newLocal()
		th.Recycle(tq, l)
	} else if l.touched != 0 {
		l.reset()
	}
	tx.SetLocal(tq, l)
	if len(tq.lanes) == 1 {
		l.touched = 1
		tq.register(tx, l)
	}
	return l
}

// newLocal allocates a local state and builds its handler pair (see
// TransactionalMap.newLocal). The handlers clear each touched lane's
// buffers as they finish with it.
func (tq *TransactionalQueue[T]) newLocal() *queueLocal[T] {
	l := &queueLocal[T]{
		addBuffers:    make([][]T, len(tq.lanes)),
		removeBuffers: make([][]T, len(tq.lanes)),
	}
	l.onCommit = func() {
		h, th := l.h, l.th
		mon := metrics.On()
		total := 0
		for li, ln := range tq.lanes {
			bit := uint64(1) << uint(li)
			if l.touched&bit == 0 {
				continue
			}
			wasEmpty := ln.q.Size() == 0
			for _, v := range l.addBuffers[li] {
				ln.q.Enqueue(v)
			}
			if wasEmpty && len(l.addBuffers[li]) > 0 {
				// Table 8: put's write conflict fires "if now non-empty".
				n := ln.emptyLockers.ViolateOthers(h, tq.reasonNotEmpty)
				if n > 0 && mon {
					ln.violations.Add(uint64(n))
				}
			}
			if l.emptyLocked&bit != 0 {
				ln.emptyLockers.Unlock(h)
			}
			total += len(l.addBuffers[li])
		}
		l.reset()
		th.DeferTick(tq.opCost * uint64(1+total))
	}
	l.onAbort = func() {
		h, th := l.h, l.th
		mon := metrics.On()
		total := 0
		for li, ln := range tq.lanes {
			bit := uint64(1) << uint(li)
			if l.touched&bit == 0 {
				continue
			}
			wasEmpty := ln.q.Size() == 0
			// Compensation: return everything this transaction dequeued
			// from this lane.
			for _, v := range l.removeBuffers[li] {
				ln.q.Enqueue(v)
			}
			if wasEmpty && len(l.removeBuffers[li]) > 0 {
				n := ln.emptyLockers.ViolateOthers(h, tq.reasonRefill)
				if n > 0 && mon {
					ln.violations.Add(uint64(n))
				}
			}
			if l.emptyLocked&bit != 0 {
				ln.emptyLockers.Unlock(h)
			}
			total += len(l.removeBuffers[li])
		}
		l.reset()
		th.DeferTick(tq.opCost * uint64(1+total))
	}
	return l
}

// register installs the transaction's single commit/abort handler pair
// for this instance under the guard of the first lane it touched. The
// handler bodies take no lock themselves: the commit/rollback protocol
// holds every touched lane's guard (the footprint widened by touch)
// for the whole handler window.
func (tq *TransactionalQueue[T]) register(tx *stm.Tx, l *queueLocal[T]) {
	l.registered = true
	l.h, l.th = tx.Handle(), tx.Thread()
	g := tq.lanes[firstStripe(l.touched)].guard
	tx.OnTopCommitGuarded(g, l.onCommit)
	tx.OnTopAbortGuarded(g, l.onAbort)
}

// touch adds lane li to the transaction's footprint for this instance,
// registering the handler pair on the first touch and widening the
// root-level guard footprint on later ones, and returns the lane. Like
// TransactionalMap.touch, it must run before (not inside) the
// open-nested critical section that locks the lane's guard.
func (tq *TransactionalQueue[T]) touch(tx *stm.Tx, l *queueLocal[T], li int) *queueLane[T] {
	ln := tq.lanes[li]
	bit := uint64(1) << uint(li)
	if l.touched&bit != 0 {
		return ln
	}
	l.touched |= bit
	if !l.registered {
		tq.register(tx, l)
		return ln
	}
	tx.AddTopGuard(ln.guard)
	return ln
}

// Put enqueues v — into the calling thread's affine lane — when the
// transaction commits. Put never semantically conflicts with other Put
// or Take operations (Table 7).
func (tq *TransactionalQueue[T]) Put(tx *stm.Tx, v T) {
	tq.PutLane(tx, tq.LaneOf(tx), v)
}

// PutLane enqueues v into a specific lane at commit, for callers that
// partition work across lanes themselves.
func (tq *TransactionalQueue[T]) PutLane(tx *stm.Tx, li int, v T) {
	li &= int(tq.mask)
	l := tq.local(tx)
	tq.touch(tx, l, li)
	l.addBuffers[li] = append(l.addBuffers[li], v)
	tx.Thread().Clock.Tick(tq.opCost / 4)
}

// Offer is Put for an unbounded queue; it always reports acceptance
// (the Channel interface's non-blocking insert).
func (tq *TransactionalQueue[T]) Offer(tx *stm.Tx, v T) bool {
	tq.Put(tx, v)
	return true
}

// tryDequeueLane removes one element of lane li visible to tx:
// preferentially from the lane's committed sub-queue (recording it for
// compensation on abort), else from the transaction's own uncommitted
// additions to the lane.
func (tq *TransactionalQueue[T]) tryDequeueLane(tx *stm.Tx, l *queueLocal[T], li int, lockIfEmpty bool) (T, bool) {
	ln := tq.touch(tx, l, li)
	var out T
	var ok bool
	_ = tx.Open(func(o *stm.Tx) error {
		ln.guard.Lock()
		defer ln.guard.Unlock()
		if v, got := ln.q.Dequeue(); got {
			l.removeBuffers[li] = append(l.removeBuffers[li], v)
			out, ok = v, true
			return nil
		}
		if len(l.addBuffers[li]) > 0 {
			out, l.addBuffers[li] = popFront(l.addBuffers[li])
			ok = true
			return nil
		}
		if lockIfEmpty {
			ln.emptyLockers.Lock(o.Handle())
			l.emptyLocked |= uint64(1) << uint(li)
		}
		return nil
	})
	tx.Thread().Clock.Tick(tq.opCost)
	return out, ok
}

// tryDequeue removes one element visible to tx. Single-lane: the old
// one-guard protocol. Segmented: probe lanes one guard at a time
// starting from the thread's affine lane (no empty locks — which lane
// supplied the element is not semantically observable under lane-FIFO
// ordering), and only if every lane came up empty fall to the
// two-phase global-empty check (dequeueOrLockEmpty) when the caller
// needs emptiness locked.
func (tq *TransactionalQueue[T]) tryDequeue(tx *stm.Tx, l *queueLocal[T], lockIfEmpty bool) (T, bool) {
	if tq.mask == 0 {
		return tq.tryDequeueLane(tx, l, 0, lockIfEmpty)
	}
	start := tq.LaneOf(tx)
	for i := range tq.lanes {
		li := (start + i) & int(tq.mask)
		if v, ok := tq.tryDequeueLane(tx, l, li, false); ok {
			return v, true
		}
	}
	if lockIfEmpty {
		return tq.dequeueOrLockEmpty(tx, l)
	}
	var zero T
	return zero, false
}

// dequeueOrLockEmpty re-checks every lane with all lane guards held at
// once and, if the queue is still globally empty, takes every lane's
// empty lock under that same hold — so "the queue was empty" is one
// atomic observation that any lane's refill violates. The lane-at-a-
// time probe cannot be used for this: emptiness seen lane by lane can
// be stale by the time the last lane is checked.
func (tq *TransactionalQueue[T]) dequeueOrLockEmpty(tx *stm.Tx, l *queueLocal[T]) (T, bool) {
	for li := range tq.lanes {
		tq.touch(tx, l, li)
	}
	var out T
	var ok bool
	_ = tx.Open(func(o *stm.Tx) error {
		tq.lockLanes()
		defer tq.unlockLanes()
		for li, ln := range tq.lanes {
			if v, got := ln.q.Dequeue(); got {
				l.removeBuffers[li] = append(l.removeBuffers[li], v)
				out, ok = v, true
				return nil
			}
			if len(l.addBuffers[li]) > 0 {
				out, l.addBuffers[li] = popFront(l.addBuffers[li])
				ok = true
				return nil
			}
		}
		h := o.Handle()
		for li, ln := range tq.lanes {
			if l.emptyLocked&(uint64(1)<<uint(li)) == 0 {
				ln.emptyLockers.Lock(h)
				l.emptyLocked |= uint64(1) << uint(li)
			}
		}
		return nil
	})
	tx.Thread().Clock.Tick(tq.opCost)
	return out, ok
}

// Poll removes and returns an element, or reports false on an empty
// queue — in which case it takes the empty lock (every lane's, for a
// segmented queue), so a commit that makes the queue non-empty aborts
// this transaction (Table 8: "poll: read lock if empty").
func (tq *TransactionalQueue[T]) Poll(tx *stm.Tx) (T, bool) {
	return tq.tryDequeue(tx, tq.local(tx), true)
}

// Take removes and returns an element, spinning (with contention
// backoff and violation polling) while the queue is empty. The caller
// is responsible for termination: a Take with no concurrent producers
// spins forever, so work-queue algorithms with a termination condition
// should use Poll.
func (tq *TransactionalQueue[T]) Take(tx *stm.Tx) T {
	l := tq.local(tx)
	for spin := 0; ; spin++ {
		if v, ok := tq.tryDequeue(tx, l, false); ok {
			return v
		}
		tx.Poll()
		backoff := uint64(16)
		if spin > 4 {
			backoff = 256
		}
		tx.Thread().Clock.Wait(backoff)
	}
}

// peekLane is tryDequeueLane without the removal.
func (tq *TransactionalQueue[T]) peekLane(tx *stm.Tx, l *queueLocal[T], li int, lockIfEmpty bool) (T, bool) {
	ln := tq.touch(tx, l, li)
	var out T
	var ok bool
	_ = tx.Open(func(o *stm.Tx) error {
		ln.guard.Lock()
		defer ln.guard.Unlock()
		if v, got := ln.q.Peek(); got {
			out, ok = v, true
			return nil
		}
		if len(l.addBuffers[li]) > 0 {
			out, ok = l.addBuffers[li][0], true
			return nil
		}
		if lockIfEmpty {
			ln.emptyLockers.Lock(o.Handle())
			l.emptyLocked |= uint64(1) << uint(li)
		}
		return nil
	})
	tx.Thread().Clock.Tick(tq.opCost)
	return out, ok
}

// Peek returns the element Take would return, without removing it, or
// reports false and takes the empty lock (Table 8: "peek: read lock if
// empty"). Note the reduced isolation: the peeked element may be taken
// by another transaction before this one commits.
func (tq *TransactionalQueue[T]) Peek(tx *stm.Tx) (T, bool) {
	l := tq.local(tx)
	if tq.mask == 0 {
		return tq.peekLane(tx, l, 0, true)
	}
	start := tq.LaneOf(tx)
	for i := range tq.lanes {
		li := (start + i) & int(tq.mask)
		if v, ok := tq.peekLane(tx, l, li, false); ok {
			return v, true
		}
	}
	return tq.peekOrLockEmpty(tx, l)
}

// peekOrLockEmpty is dequeueOrLockEmpty without the removal.
func (tq *TransactionalQueue[T]) peekOrLockEmpty(tx *stm.Tx, l *queueLocal[T]) (T, bool) {
	for li := range tq.lanes {
		tq.touch(tx, l, li)
	}
	var out T
	var ok bool
	_ = tx.Open(func(o *stm.Tx) error {
		tq.lockLanes()
		defer tq.unlockLanes()
		for li, ln := range tq.lanes {
			if v, got := ln.q.Peek(); got {
				out, ok = v, true
				return nil
			}
			if len(l.addBuffers[li]) > 0 {
				out, ok = l.addBuffers[li][0], true
				return nil
			}
		}
		h := o.Handle()
		for li, ln := range tq.lanes {
			if l.emptyLocked&(uint64(1)<<uint(li)) == 0 {
				ln.emptyLockers.Lock(h)
				l.emptyLocked |= uint64(1) << uint(li)
			}
		}
		return nil
	})
	tx.Thread().Clock.Tick(tq.opCost)
	return out, ok
}

// CommittedSize returns the size of the committed queue, for inspection
// after transactions have quiesced.
func (tq *TransactionalQueue[T]) CommittedSize() int {
	tq.lockLanes()
	defer tq.unlockLanes()
	n := 0
	for _, ln := range tq.lanes {
		n += ln.q.Size()
	}
	return n
}
