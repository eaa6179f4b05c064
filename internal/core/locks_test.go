package core

// Lock-acquisition tests: one assertion per row of the paper's Table 2
// (Map semantic locks), Table 5 (SortedMap) and Table 8 (Channel) —
// each read operation must take exactly the locks the tables prescribe,
// and write operations must take only the key lock implied by their
// read component (or none, for the Unread variants).

import (
	"fmt"
	"testing"

	"tcc/internal/stm"
)

// mapLockState snapshots which locks h holds on tm. covered lists the
// probe keys that some range lock held by h covers: on a sorted map,
// Table 5's first/last locks are range locks reaching the bottom/top
// of the key space, so they show up as coverage of probes below the
// minimum or above the maximum.
type mapLockState struct {
	keys       []int
	size       bool
	empty      bool
	rangeLocks int
	covered    []int
}

func snapshotLocks(tm *TransactionalMap[int, int], h *stm.Handle, probeKeys []int) mapLockState {
	tm.lockGuards()
	defer tm.unlockGuards()
	st := mapLockState{
		size:  tm.stripes[0].sizeLockers.Holds(h),
		empty: tm.stripes[0].emptyLockers.Holds(h),
	}
	for _, k := range probeKeys {
		if tm.stripes[tm.StripeOf(k)].key2lockers.Holds(k, h) {
			st.keys = append(st.keys, k)
		}
	}
	if tm.sorted != nil {
		for _, rt := range tm.sorted.rangeLockers {
			st.rangeLocks += rt.Len()
		}
	}
	return st
}

// rangeCovered returns the probe keys covered by some range lock tx
// holds on tm.
func rangeCovered(tm *TransactionalMap[int, int], tx *stm.Tx, probeKeys []int) []int {
	l, ok := tx.Local(tm).(*mapLocal[int, int])
	if !ok || tm.sorted == nil {
		return nil
	}
	tm.lockGuards()
	defer tm.unlockGuards()
	var out []int
	for _, k := range probeKeys {
		for _, rl := range l.rangeLocks {
			if rl.si == tm.StripeOf(k) && tm.sorted.rangeLockers[rl.si].Covers(rl.e, k) {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// assertLocks runs op inside a transaction and compares the locks held
// immediately afterwards (while the transaction is still active).
func assertLocks(t *testing.T, name string, tm *TransactionalMap[int, int], probe []int,
	op func(tx *stm.Tx), want mapLockState) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			op(tx)
			got := snapshotLocks(tm, tx.Handle(), probe)
			got.covered = rangeCovered(tm, tx, probe)
			if len(got.keys) != len(want.keys) {
				t.Fatalf("key locks = %v, want %v", got.keys, want.keys)
			}
			for i := range want.keys {
				if got.keys[i] != want.keys[i] {
					t.Fatalf("key locks = %v, want %v", got.keys, want.keys)
				}
			}
			if got.size != want.size {
				t.Errorf("size lock = %v, want %v", got.size, want.size)
			}
			if got.empty != want.empty {
				t.Errorf("empty lock = %v, want %v", got.empty, want.empty)
			}
			if got.rangeLocks != want.rangeLocks {
				t.Errorf("range locks = %d, want %d", got.rangeLocks, want.rangeLocks)
			}
			if fmt.Sprint(got.covered) != fmt.Sprint(want.covered) {
				t.Errorf("range-covered probes = %v, want %v", got.covered, want.covered)
			}
		})
	})
}

// TestMapLocks asserts Table 2 row by row.
func TestMapLocks(t *testing.T) {
	seeded := func() *TransactionalMap[int, int] {
		tm := newIntMap()
		th := newTh(9)
		atomically(t, th, func(tx *stm.Tx) {
			tm.Put(tx, 1, 10)
			tm.Put(tx, 2, 20)
		})
		return tm
	}
	probe := []int{1, 2, 3}

	{
		tm := seeded()
		assertLocks(t, "containsKey", tm, probe,
			func(tx *stm.Tx) { tm.ContainsKey(tx, 1) },
			mapLockState{keys: []int{1}})
	}
	{
		tm := seeded()
		assertLocks(t, "get", tm, probe,
			func(tx *stm.Tx) { tm.Get(tx, 2) },
			mapLockState{keys: []int{2}})
	}
	{
		tm := seeded()
		assertLocks(t, "get-absent-key", tm, probe,
			func(tx *stm.Tx) { tm.Get(tx, 3) },
			mapLockState{keys: []int{3}})
	}
	{
		tm := seeded()
		assertLocks(t, "size", tm, probe,
			func(tx *stm.Tx) { tm.Size(tx) },
			mapLockState{size: true})
	}
	{
		tm := seeded()
		assertLocks(t, "isEmpty", tm, probe,
			func(tx *stm.Tx) { tm.IsEmpty(tx) },
			mapLockState{empty: true})
	}
	{
		tm := seeded()
		assertLocks(t, "put", tm, probe,
			func(tx *stm.Tx) { tm.Put(tx, 1, 11) },
			mapLockState{keys: []int{1}})
	}
	{
		tm := seeded()
		assertLocks(t, "putUnread", tm, probe,
			func(tx *stm.Tx) { tm.PutUnread(tx, 1, 11) },
			mapLockState{})
	}
	{
		tm := seeded()
		assertLocks(t, "remove", tm, probe,
			func(tx *stm.Tx) { tm.Remove(tx, 2) },
			mapLockState{keys: []int{2}})
	}
	{
		tm := seeded()
		assertLocks(t, "removeUnread", tm, probe,
			func(tx *stm.Tx) { tm.RemoveUnread(tx, 2) },
			mapLockState{})
	}
	t.Run("iterator-next", func(t *testing.T) {
		tm := seeded()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			it := tm.Iterator(tx)
			it.Next()
			st := snapshotLocks(tm, tx.Handle(), probe)
			// Exactly one key lock (whichever key the unordered
			// iterator returned first) and no size lock yet.
			if len(st.keys) != 1 {
				t.Fatalf("key locks = %v, want exactly one", st.keys)
			}
			if st.size {
				t.Fatal("partial iteration must not take the size lock")
			}
		})
	})
	{
		tm := seeded()
		assertLocks(t, "iterator-exhausted", tm, []int{},
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
			},
			mapLockState{size: true})
	}
}

// TestMapIteratorNextTakesKeyLock covers the dynamic part of Table 2's
// iterator row: the key lock of each returned key is held.
func TestMapIteratorNextTakesKeyLock(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 10)
		tm.Put(tx, 2, 20)
	})
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.Iterator(tx)
		h := tx.Handle()
		seen := 0
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			seen++
			tm.lockGuards()
			held := tm.stripes[tm.StripeOf(k)].key2lockers.Holds(k, h)
			tm.unlockGuards()
			if !held {
				t.Fatalf("iterator returned %d without its key lock", k)
			}
		}
		if seen != 2 {
			t.Fatalf("iterated %d keys", seen)
		}
	})
}

// TestSortedLocks asserts the Table 5 additions. Table 5's first and
// last locks are carried by range locks: an endpoint query or a scan
// from the map's beginning holds a range lock unbounded below (first),
// and an unbounded scan that runs dry holds one unbounded above (last).
// An endpoint query returns no value, so it takes no key lock.
func TestSortedLocks(t *testing.T) {
	seeded := func() *TransactionalSortedMap[int, int] {
		tm := newSorted()
		th := newTh(9)
		atomically(t, th, func(tx *stm.Tx) {
			for _, k := range []int{10, 20, 30} {
				tm.Put(tx, k, k)
			}
		})
		return tm
	}
	probe := []int{5, 10, 15, 20, 25, 30, 35}

	{
		tm := seeded()
		assertLocks(t, "firstKey", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) { tm.FirstKey(tx) },
			// (-inf, 10]: no other key below the minimum, 10 present.
			mapLockState{rangeLocks: 1, covered: []int{5, 10}})
	}
	{
		tm := seeded()
		assertLocks(t, "lastKey", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) { tm.LastKey(tx) },
			mapLockState{rangeLocks: 1, covered: []int{30, 35}})
	}
	{
		tm := seeded()
		assertLocks(t, "iterator-first-next", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next() // returns 10
			},
			// Table 5: next takes "range lock over iterated values,
			// first lock" for iteration from the beginning: one range
			// lock unbounded below, through the returned key.
			mapLockState{keys: []int{10}, rangeLocks: 1, covered: []int{5, 10}})
	}
	{
		tm := seeded()
		assertLocks(t, "tailmap-iterator-next", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.TailMap(15).Iterator(tx)
				it.Next() // returns 20
			},
			// Bounded start: the range lock starts at the view bound.
			mapLockState{keys: []int{20}, rangeLocks: 1, covered: []int{15, 20}})
	}
	{
		tm := seeded()
		assertLocks(t, "iterator-exhausted-takes-last", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
			},
			// The range lock spans the whole key space: first and last.
			mapLockState{keys: []int{10, 20, 30}, rangeLocks: 1, covered: probe})
	}
	{
		tm := seeded()
		assertLocks(t, "submap-exhausted-pins-range", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.SubMap(10, 25).Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
				// Bounded view exhaustion does not reach the top of
				// the key space; it pins the range to the view bound.
			},
			mapLockState{keys: []int{10, 20}, rangeLocks: 1, covered: []int{10, 15, 20}})
	}
}

// TestSortedRangeLockWidens checks that an iterator's single range lock
// grows to cover exactly the observed keys.
func TestSortedRangeLockWidens(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for _, k := range []int{10, 20, 30, 40} {
			tm.Put(tx, k, k)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.TailMap(10).Iterator(tx)
		it.Next() // 10
		it.Next() // 20
		if !coversAny(tm, tx, 15) {
			t.Error("range [10,20] should cover 15")
		}
		if coversAny(tm, tx, 25) {
			t.Error("range [10,20] should not cover 25 yet")
		}
		it.Next() // 30
		if !coversAny(tm, tx, 25) {
			t.Error("widened range [10,30] should cover 25")
		}
	})
}

// coversAny reports whether any range lock tx holds on tm covers k.
func coversAny(tm *TransactionalSortedMap[int, int], tx *stm.Tx, k int) bool {
	l, ok := tx.Local(&tm.TransactionalMap).(*mapLocal[int, int])
	if !ok {
		return false
	}
	tm.lockGuards()
	defer tm.unlockGuards()
	for _, rl := range l.rangeLocks {
		if tm.sorted.rangeLockers[rl.si].Covers(rl.e, k) {
			return true
		}
	}
	return false
}

// TestQueueLocks asserts Table 8.
func TestQueueLocks(t *testing.T) {
	emptyHeld := func(q *TransactionalQueue[int], h *stm.Handle) bool {
		q.lanes[0].guard.Lock()
		defer q.lanes[0].guard.Unlock()
		return q.lanes[0].emptyLockers.Holds(h)
	}
	t.Run("peek-empty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Peek(tx)
			if !emptyHeld(q, tx.Handle()) {
				t.Error("null peek must take the empty lock")
			}
		})
	})
	t.Run("peek-nonempty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 1) })
		atomically(t, th, func(tx *stm.Tx) {
			q.Peek(tx)
			if emptyHeld(q, tx.Handle()) {
				t.Error("successful peek must not take the empty lock")
			}
		})
	})
	t.Run("poll-empty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Poll(tx)
			if !emptyHeld(q, tx.Handle()) {
				t.Error("null poll must take the empty lock")
			}
		})
	})
	t.Run("poll-nonempty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 1) })
		atomically(t, th, func(tx *stm.Tx) {
			q.Poll(tx)
			if emptyHeld(q, tx.Handle()) {
				t.Error("successful poll must not take the empty lock")
			}
		})
	})
	t.Run("put", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Put(tx, 1)
			if emptyHeld(q, tx.Handle()) {
				t.Error("put must not take the empty lock")
			}
		})
	})
}
