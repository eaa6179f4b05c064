package main

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/stm"
)

// feed is the ordered-feed workload: a range-striped
// TransactionalSortedMap beside a segmented TransactionalQueue (one
// lane per worker). Every Put and Remove also enqueues a change event;
// Poll batches drain events faster than they arrive, so pollers keep
// finding the queue empty and taking its empty locks. CeilingKey and
// short SubMap scans run beside the writes and may cross stripes.
//
// The key range and its half-full prepopulation are cmd/stmsweep's
// defaults (Synchrobench's convention: the range is twice the initial
// size), and its 8 equal-width stripes are stmsweep's too.
type feed struct {
	sm     *core.TransactionalSortedMap[int, int]
	q      *core.TransactionalQueue[int]
	ws     []*feedWorker
	prepop int
}

const (
	feedKeys    = 1024          // stmsweep's default key range, half prepopulated
	feedStripes = 8             // 128 keys a stripe, so 31 in 128 scans cross one
	scanLimit   = 16            // keys one scan visits at most
	feedScanLen = 2 * scanLimit // key range of one scan: the map is half full
	// pollBatch is twice the 2 polls per batch that would match the
	// events 40% of the operations enqueue, so the lanes keep draining.
	pollBatch = 4
)

const (
	opFeedPut uint8 = iota
	opFeedRemove
	opPollBatch
	opCeiling
	opScan
)

type feedWorker struct {
	sm  *core.TransactionalSortedMap[int, int]
	q   *core.TransactionalQueue[int]
	th  *stm.Thread
	rec *recorder
	k   int
	v   int
	// Outcome of the current attempt; kept only once Atomic returns.
	inserted, removed bool
	polled            int
	batch             [pollBatch]int
	bad               string
	scanPrev, scanN   int
	// Committed tallies. puts also numbers this worker's events.
	inserts, removes, puts, polls    int64
	seen                             [][]uint64 // per producer, a bitmap of the events polled
	put, remove, poll, ceiling, scan func(tx *stm.Tx) error
	visit                            func(k, v int) bool
}

func (f *feed) gen(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for j := range ops {
		k := rng.Intn(feedKeys)
		o := op{key: k, val: valFor(k, j)}
		switch r := rng.Intn(100); {
		case r < 20:
			o.kind = opFeedPut
		case r < 40:
			o.kind = opFeedRemove
		case r < 60:
			o.kind = opPollBatch
		case r < 85:
			o.kind = opCeiling
		default:
			o.kind = opScan
		}
		ops[j] = o
	}
	return ops
}

// An event names its producer (and so its lane) and its sequence
// number among that producer's committed events.
func (f *feed) event(producer int, seq int64) int { return int(seq)*len(f.ws) + producer }

func (f *feed) eventOf(e int) (producer int, seq int64) {
	return e % len(f.ws), int64(e / len(f.ws))
}

func (f *feed) setup(seed int64, workers int) {
	all := make([]int, feedKeys)
	for k := range all {
		all[k] = k
	}
	f.sm = core.NewRangeStripedTransactionalSortedMap(func() collections.SortedMap[int, int] {
		return collections.NewTreeMap[int, int]()
	}, core.SampleRangeBoundaries(all, cmp.Compare[int], feedStripes))
	f.sm.SetName("feed")
	f.q = core.NewSegmentedTransactionalQueue(func() collections.Queue[int] {
		return collections.NewLinkedQueue[int]()
	}, workers)
	f.q.SetName("events")
	th := newThread(seed, workers)
	for lo := 0; lo < feedKeys; lo += 512 {
		if err := th.Atomic(func(tx *stm.Tx) error {
			for k := lo; k < lo+512; k += 2 {
				f.sm.Put(tx, k, valFor(k, 0))
			}
			return nil
		}); err != nil {
			panic(err)
		}
	}
	f.prepop = feedKeys / 2
	f.ws = make([]*feedWorker, workers)
	for i := range f.ws {
		w := &feedWorker{sm: f.sm, q: f.q, th: newThread(seed, i), seen: make([][]uint64, workers)}
		w.put = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			sp := w.rec.begin(spanSortedPut)
			_, had := w.sm.Put(tx, w.k, w.v)
			w.rec.end(sp)
			w.inserted = !had
			sp = w.rec.begin(spanQueuePut)
			w.q.Put(tx, f.event(i, w.puts))
			w.rec.end(sp)
			return nil
		}
		w.remove = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			sp := w.rec.begin(spanSortedRemove)
			_, had := w.sm.Remove(tx, w.k)
			w.rec.end(sp)
			w.removed = had
			sp = w.rec.begin(spanQueuePut)
			w.q.Put(tx, f.event(i, w.puts))
			w.rec.end(sp)
			return nil
		}
		w.poll = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			w.polled = 0
			for w.polled < pollBatch {
				sp := w.rec.begin(spanQueuePoll)
				e, ok := w.q.Poll(tx)
				w.rec.end(sp)
				if !ok {
					break
				}
				w.batch[w.polled] = e
				w.polled++
			}
			return nil
		}
		w.ceiling = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			w.bad = ""
			sp := w.rec.begin(spanSortedCeiling)
			c, ok := w.sm.CeilingKey(tx, w.k)
			w.rec.end(sp)
			// The ceiling must be present and not below w.k, and w.k
			// absent unless it is the ceiling. Keys strictly between
			// them are not probed.
			if ok {
				if v, has := w.sm.Get(tx, c); c < w.k || !has || valKey(v) != c {
					w.bad = fmt.Sprintf("CeilingKey(%d) = %d, present %v", w.k, c, has)
				}
			}
			if !ok || c > w.k {
				if _, has := w.sm.Get(tx, w.k); has {
					w.bad = fmt.Sprintf("CeilingKey(%d) = %d, %v, but key %d is present", w.k, c, ok, w.k)
				}
			}
			return nil
		}
		w.visit = func(k, v int) bool {
			if k < w.k || k >= w.k+feedScanLen || k <= w.scanPrev || valKey(v) != k {
				w.bad = fmt.Sprintf("SubMap(%d, %d) visited key %d value %d after key %d", w.k, w.k+feedScanLen, k, v, w.scanPrev)
			}
			w.scanPrev = k
			w.scanN++
			return w.scanN < scanLimit
		}
		w.scan = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			w.bad, w.scanPrev, w.scanN = "", w.k-1, 0
			sp := w.rec.begin(spanSortedScan)
			w.sm.SubMap(w.k, w.k+feedScanLen).ForEach(tx, w.visit)
			w.rec.end(sp)
			return nil
		}
		f.ws[i] = w
	}
}

func (f *feed) exec(i int, o op, rec *recorder) error {
	w := f.ws[i]
	w.rec, w.k, w.v, w.bad = rec, o.key, o.val, ""
	var body func(*stm.Tx) error
	switch o.kind {
	case opFeedPut:
		body = w.put
	case opFeedRemove:
		body = w.remove
	case opPollBatch:
		body = w.poll
	case opCeiling:
		body = w.ceiling
	default:
		body = w.scan
	}
	sp := rec.begin(spanAtomic)
	err := w.th.Atomic(body)
	rec.end(sp)
	if err != nil {
		return err
	}
	switch o.kind {
	case opFeedPut:
		w.puts++
		if w.inserted {
			w.inserts++
		}
	case opFeedRemove:
		w.puts++
		if w.removed {
			w.removes++
		}
	case opPollBatch:
		w.polls += int64(w.polled)
		for _, e := range w.batch[:w.polled] {
			if err := w.record(f, e); err != nil {
				return err
			}
		}
	}
	if w.bad != "" {
		return fmt.Errorf("ordered-feed: %s", w.bad)
	}
	return nil
}

// record notes a committed polled event; polling it twice fails.
func (w *feedWorker) record(f *feed, e int) error {
	p, seq := f.eventOf(e)
	if e < 0 {
		return fmt.Errorf("ordered-feed: polled event %d, never enqueued", e)
	}
	for int(seq/64) >= len(w.seen[p]) {
		w.seen[p] = append(w.seen[p], 0)
	}
	if w.seen[p][seq/64]&(1<<(seq%64)) != 0 {
		return fmt.Errorf("ordered-feed: polled event %d (producer %d, seq %d) twice", e, p, seq)
	}
	w.seen[p][seq/64] |= 1 << (seq % 64)
	return nil
}

var errRollBack = errors.New("roll back")

func (f *feed) thread(i int) *stm.Thread { return f.ws[i].th }

// check compares the committed SortedMap Size with prepopulated keys
// plus committed inserts minus committed removes, and the queue's
// committed size with committed puts minus committed polls. It then
// drains the queue in a transaction it rolls back: every event a
// producer enqueued must have been polled by one committed Poll or
// still be queued, exactly once. The
// queue promises FIFO order only among commits that did not abort
// (a rolled-back Poll returns its events), so order is not checked.
func (f *feed) check() error {
	wantSize, wantQueue := int64(f.prepop), int64(0)
	for _, w := range f.ws {
		wantSize += w.inserts - w.removes
		wantQueue += w.puts - w.polls
	}
	var got int
	th := newThread(0, len(f.ws)+1)
	if err := th.Atomic(func(tx *stm.Tx) error {
		got = f.sm.Size(tx)
		return nil
	}); err != nil {
		return err
	}
	if int64(got) != wantSize {
		return fmt.Errorf("ordered-feed: committed Size %d, want %d (prepopulated + inserts - removes)", got, wantSize)
	}
	if got := int64(f.q.CommittedSize()); got != wantQueue {
		return fmt.Errorf("ordered-feed: queue CommittedSize %d, want %d (puts - polls)", got, wantQueue)
	}

	var queued []int
	if err := th.Atomic(func(tx *stm.Tx) error {
		queued = queued[:0]
		for e, ok := f.q.Poll(tx); ok; e, ok = f.q.Poll(tx) {
			queued = append(queued, e)
		}
		return errRollBack
	}); err != errRollBack {
		return err
	}
	for p, prod := range f.ws {
		got := make([]bool, prod.puts)
		n := int64(0)
		mark := func(seq int64) error {
			switch {
			case seq < 0 || seq >= prod.puts:
				return fmt.Errorf("ordered-feed: event %d of producer %d was never enqueued", seq, p)
			case got[seq]:
				return fmt.Errorf("ordered-feed: event %d of producer %d was polled twice, or polled and still queued", seq, p)
			}
			got[seq] = true
			n++
			return nil
		}
		for _, w := range f.ws {
			for j, word := range w.seen[p] {
				for ; word != 0; word &= word - 1 {
					if err := mark(int64(64*j + bits.TrailingZeros64(word))); err != nil {
						return err
					}
				}
			}
		}
		for _, e := range queued {
			if q, seq := f.eventOf(e); q == p {
				if err := mark(seq); err != nil {
					return err
				}
			}
		}
		if n != prod.puts {
			return fmt.Errorf("ordered-feed: %d of producer %d's %d events were neither polled nor queued", prod.puts-n, p, prod.puts)
		}
	}
	return nil
}

func (f *feed) keys(ops []op) []int { return opKeys(ops) }
