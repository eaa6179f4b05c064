package core

// Allocation guardrails for the collection fast path. A warm thread —
// one that has already run a transaction on the collection, so its
// recycled local state (stm.Thread.Recycled), the lock tables and the
// buffers have grown — runs each operation as a whole retry-path
// transaction. Apart from what the wrapped structure itself allocates,
// the only allocation left is the attempt's stm.Handle, which outlives
// the attempt in lock tables and so is never recycled. Each budget is
// stated per transaction.

import (
	"runtime"
	"testing"
	"weak"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// allocBudget runs body as one transaction per iteration on a warm
// thread and fails when it allocates more than budget on average.
func allocBudget(t *testing.T, name string, budget float64, body func(tx *stm.Tx) error) {
	t.Helper()
	th := newTh(1)
	for i := 0; i < 3; i++ {
		must(t, th.Atomic(body))
	}
	got := testing.AllocsPerRun(200, func() {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %v allocs per transaction", name, got)
	if got > budget {
		t.Errorf("%s: %v allocs per transaction, budget %v", name, got, budget)
	}
}

// TestMapFastPathAllocs: Get, Put (of a present key), Remove (of an
// absent key, so the wrapped map neither frees nor allocates a node)
// and Size on the single-stripe and the striped map cost the handle
// alone.
func TestMapFastPathAllocs(t *testing.T) {
	for _, layout := range []struct {
		name string
		tm   *TransactionalMap[int, int]
	}{
		{"1-stripe", newIntMap()},
		{"striped", newStripedIntMap(16)},
	} {
		tm := layout.tm
		atomically(t, newTh(9), func(tx *stm.Tx) {
			for k := 0; k < 8; k++ {
				tm.Put(tx, k, k)
			}
		})
		ops := []struct {
			name string
			body func(tx *stm.Tx) error
		}{
			{"Get", func(tx *stm.Tx) error { tm.Get(tx, 3); return nil }},
			{"Put", func(tx *stm.Tx) error { tm.Put(tx, 3, 4); return nil }},
			{"Remove", func(tx *stm.Tx) error { tm.Remove(tx, 100); return nil }},
			{"Size", func(tx *stm.Tx) error { tm.Size(tx); return nil }},
			{"IsEmpty", func(tx *stm.Tx) error { tm.IsEmpty(tx); return nil }},
		}
		for _, op := range ops {
			allocBudget(t, layout.name+"/"+op.name, 1, op.body)
		}
	}
}

// TestSortedMapFastPathAllocs: a Put of a present key and a CeilingKey
// cost the handle alone on either layout. The walk's range-lock entries
// hold their bounds inline and are reused from the local's free list
// once a transaction has released them.
func TestSortedMapFastPathAllocs(t *testing.T) {
	for _, layout := range []struct {
		name string
		tm   *TransactionalSortedMap[int, int]
	}{
		{"1-stripe", newSorted()},
		{"4-stripe", newRangeStripedIntSortedMap(4)},
	} {
		tm := layout.tm
		atomically(t, newTh(9), func(tx *stm.Tx) {
			for k := 0; k < 64; k += 4 {
				tm.Put(tx, k, k)
			}
		})
		allocBudget(t, layout.name+"/Put", 1, func(tx *stm.Tx) error {
			tm.Put(tx, 8, 9)
			return nil
		})
		allocBudget(t, layout.name+"/CeilingKey", 1, func(tx *stm.Tx) error {
			tm.CeilingKey(tx, 5)
			return nil
		})
	}
}

// TestQueueFastPathAllocs: a Put/Poll pair on a warm queue costs two
// handles (one per transaction) and the wrapped linked queue's node for
// the committed element.
func TestQueueFastPathAllocs(t *testing.T) {
	for _, layout := range []struct {
		name string
		q    *TransactionalQueue[int]
	}{
		{"1-lane", newQueue()},
		{"4-lane", NewSegmentedTransactionalQueue[int](func() collections.Queue[int] {
			return collections.NewLinkedQueue[int]()
		}, 4)},
	} {
		q := layout.q
		th := newTh(1)
		put := func(tx *stm.Tx) error { q.Put(tx, 1); return nil }
		poll := func(tx *stm.Tx) error { q.Poll(tx); return nil }
		for i := 0; i < 3; i++ {
			must(t, th.Atomic(put))
			must(t, th.Atomic(poll))
		}
		got := testing.AllocsPerRun(200, func() {
			must(t, th.Atomic(put))
			must(t, th.Atomic(poll))
		})
		t.Logf("%s: Put+Poll %v allocs", layout.name, got)
		if got > 3 {
			t.Errorf("%s: Put+Poll %v allocs, budget 3", layout.name, got)
		}
	}
}

// TestCounterFastPathAllocs: Counter.Add and UIDGen.Next cost the
// handle alone.
func TestCounterFastPathAllocs(t *testing.T) {
	c := NewCounter(0)
	g := NewUIDGen(0)
	allocBudget(t, "Counter.Add", 1, func(tx *stm.Tx) error { c.Add(tx, 1); return nil })
	allocBudget(t, "UIDGen.Next", 1, func(tx *stm.Tx) error { g.Next(tx); return nil })
}

// TestRecycledLocalAfterFallback: a snapshot attempt that falls back
// after touching a collection leaves the thread's recycled local
// marked; the retry-path attempt must start from a clean one.
func TestRecycledLocalAfterFallback(t *testing.T) {
	tm := newStripedIntMap(4)
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })
	must(t, th.AtomicRead(func(tx *stm.Tx) error {
		if v, ok := tm.Get(tx, 1); !ok || v != 1 {
			t.Errorf("Get(1) = (%d, %v)", v, ok)
		}
		tm.Put(tx, 2, 2) // falls back to the retry path
		if n := tm.Size(tx); n != 2 {
			t.Errorf("Size = %d, want 2", n)
		}
		return nil
	}))
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != 2 {
			t.Errorf("committed Size = %d, want 2", n)
		}
	})
	if n := mapHeld(tm, 1, 2); n != 0 {
		t.Fatalf("%d semantic locks held after the transactions", n)
	}
}

// TestThreadDoesNotPinEvictedCollections: a long-lived thread that
// runs transactions on many short-lived collections keeps the recycled
// state — and so the collection — of a bounded number of them only.
func TestThreadDoesNotPinEvictedCollections(t *testing.T) {
	th := newTh(1)
	var first weak.Pointer[TransactionalMap[int, int]]
	for i := 0; i < 64; i++ {
		tm := newIntMap()
		atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })
		if i == 0 {
			first = weak.Make(tm)
		}
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the thread still pins the first of 64 short-lived collections")
	}
}
