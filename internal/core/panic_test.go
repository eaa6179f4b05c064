package core

// Panic safety: a real panic in a transaction body, in an AtomicRead
// body, or in an open-nested child must unwind the attempt before it
// reaches the caller — abort handlers run, every semantic lock is
// released and every guard is free — so the next transaction on the
// same keys runs as if the panicking one had never started.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// panicTarget is one collection under test: ops takes semantic locks
// (and, for the queue, performs an open-nested removal); held counts
// the lock-table entries still present; write commits a conflicting
// write to what ops touched.
type panicTarget struct {
	name  string
	ops   func(tx *stm.Tx)
	held  func() int
	write func(tx *stm.Tx)
	check func(t *testing.T)
}

// mapHeld counts the semantic locks held on tm: key locks on keys,
// every stripe's size and empty sets, and every range table.
func mapHeld(tm *TransactionalMap[int, int], keys ...int) int {
	tm.lockGuards()
	defer tm.unlockGuards()
	n := 0
	for _, k := range keys {
		if tm.stripes[tm.StripeOf(k)].key2lockers.Locked(k) {
			n++
		}
	}
	for _, st := range tm.stripes {
		n += st.sizeLockers.Len() + st.emptyLockers.Len()
	}
	if tm.sorted != nil {
		for _, rt := range tm.sorted.rangeLockers {
			n += rt.Len()
		}
	}
	return n
}

func panicTargets(t *testing.T) []panicTarget {
	plain := newIntMap()
	atomically(t, newTh(9), func(tx *stm.Tx) { plain.Put(tx, 1, 10) })
	targets := []panicTarget{{
		name: "map",
		ops: func(tx *stm.Tx) {
			plain.Get(tx, 1)
			plain.Put(tx, 2, 20)
			plain.Size(tx)
			plain.IsEmpty(tx)
		},
		held:  func() int { return mapHeld(plain, 1, 2) },
		write: func(tx *stm.Tx) { plain.Put(tx, 1, 11) },
	}}
	for _, sorted := range []struct {
		name string
		tm   *TransactionalSortedMap[int, int]
	}{
		{"sortedmap-1", newSorted()},
		{"sortedmap-4", newRangeStripedIntSortedMap(4)},
	} {
		tm := sorted.tm
		atomically(t, newTh(9), func(tx *stm.Tx) {
			tm.Put(tx, 20, 20)
			tm.Put(tx, 40, 40)
		})
		targets = append(targets, panicTarget{
			name: sorted.name,
			ops: func(tx *stm.Tx) {
				tm.FirstKey(tx)
				tm.CeilingKey(tx, 21)
				tm.Get(tx, 20)
				tm.Put(tx, 30, 30)
				tm.SubMap(0, 50).Keys(tx)
				tm.Size(tx)
			},
			held:  func() int { return mapHeld(&tm.TransactionalMap, 20, 30, 40) },
			write: func(tx *stm.Tx) { tm.Put(tx, 10, 10) },
		})
	}
	q := newQueue()
	atomically(t, newTh(9), func(tx *stm.Tx) { q.Put(tx, 7) })
	targets = append(targets, panicTarget{
		name: "queue",
		ops: func(tx *stm.Tx) {
			q.Poll(tx) // open-nested removal of 7, refilled on abort
			q.Poll(tx) // empty: takes the empty lock
			q.Put(tx, 8)
		},
		held: func() int {
			q.lockLanes()
			defer q.unlockLanes()
			n := 0
			for _, ln := range q.lanes {
				n += ln.emptyLockers.Len()
			}
			return n
		},
		write: func(tx *stm.Tx) { q.Put(tx, 9) },
		check: func(t *testing.T) {
			atomically(t, newTh(8), func(tx *stm.Tx) {
				if v, ok := q.Poll(tx); !ok || v != 7 {
					t.Errorf("head after the panic = (%d, %v), want the refilled 7", v, ok)
				}
			})
		},
	})
	return targets
}

// TestPanicReleasesSemanticLocks runs every protocol against every
// collection with the panic raised in the body, in an AtomicRead body,
// and in an open-nested child.
func TestPanicReleasesSemanticLocks(t *testing.T) {
	type boom struct{}
	for _, proto := range stm.Protocols() {
		for _, where := range []string{"body", "read-body", "open-child"} {
			for _, tg := range panicTargets(t) {
				t.Run(proto+"/"+where+"/"+tg.name, func(t *testing.T) {
					th := newTh(1)
					if err := th.SetProtocol(proto); err != nil {
						t.Fatal(err)
					}
					var victim *stm.Handle
					body := func(tx *stm.Tx) error {
						victim = tx.Handle()
						tg.ops(tx)
						if where == "open-child" {
							_ = tx.Open(func(o *stm.Tx) error { panic(boom{}) })
						}
						panic(boom{})
					}
					recovered := func() (r any) {
						defer func() { r = recover() }()
						if where == "read-body" {
							_ = th.AtomicRead(body)
						} else {
							_ = th.Atomic(body)
						}
						return nil
					}()
					if recovered != (boom{}) {
						t.Fatalf("recovered %v, want the body's panic value", recovered)
					}
					expectReleased(t, th, victim, tg)
				})
			}
		}
	}
}

// TestComparatorPanicReleasesGuard raises the panic inside a sorted
// map's own open-nested critical section — a comparator that panics on
// one key, while the stripe guard is held — on both layouts.
func TestComparatorPanicReleasesGuard(t *testing.T) {
	const poison = 13
	cmp := func(a, b int) int {
		if a == poison || b == poison {
			panic("poisoned key")
		}
		return a - b
	}
	for _, stripes := range []int{1, 4} {
		tm := NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
			return collections.NewTreeMapFunc[int, int](cmp)
		}, []int{16, 32, 48})
		if stripes == 1 {
			tm = NewTransactionalSortedMap[int, int](collections.NewTreeMapFunc[int, int](cmp))
		}
		atomically(t, newTh(9), func(tx *stm.Tx) { tm.Put(tx, 2, 2) })
		tg := panicTarget{
			held:  func() int { return mapHeld(&tm.TransactionalMap, 2) },
			write: func(tx *stm.Tx) { tm.Put(tx, 2, 3) },
		}
		th := newTh(1)
		var victim *stm.Handle
		recovered := func() (r any) {
			defer func() { r = recover() }()
			_ = th.Atomic(func(tx *stm.Tx) error {
				victim = tx.Handle()
				tm.Get(tx, 2)
				tm.CeilingKey(tx, poison)
				return nil
			})
			return nil
		}()
		if recovered != "poisoned key" {
			t.Fatalf("%d stripes: recovered %v, want the comparator's panic", stripes, recovered)
		}
		expectReleased(t, th, victim, tg)
	}
}

// expectReleased checks the state a panicking attempt must leave: no
// semantic lock held, the attempt aborted, and a conflicting writer on
// the same thread committing first time without violating anyone.
func expectReleased(t *testing.T, th *stm.Thread, victim *stm.Handle, tg panicTarget) {
	t.Helper()
	if n := tg.held(); n != 0 {
		t.Fatalf("%d semantic locks still held after the panic", n)
	}
	if victim.Status() != stm.StatusAborted {
		t.Fatalf("panicked attempt left in status %v", victim.Status())
	}
	before := th.Stats
	done := make(chan error, 1)
	go func() { done <- th.Atomic(func(tx *stm.Tx) error { tg.write(tx); return nil }) }()
	select {
	case err := <-done:
		must(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked: a guard leaked through the panic")
	}
	if th.Stats.Aborts != before.Aborts || th.Stats.Violations != before.Violations {
		t.Fatalf("writer after the panic retried: %+v", th.Stats)
	}
	if victim.Status() != stm.StatusAborted {
		t.Fatalf("writer violated the dead attempt: status %v", victim.Status())
	}
	if tg.check != nil {
		tg.check(t)
	}
}

// TestHandlerPanicReleasesGuards raises the panic in a commit handler
// and in an abort handler, on every protocol and collection. The
// panicking handler runs before the collection's own (commit handlers
// run in registration order, abort handlers newest-first), so the
// collection's handler never runs: its semantic locks stay with the
// dead attempt, whose handle no sweep can violate any more, and its
// recycled local is left dirty. What must not leak is the guard
// footprint — a writer on the same stripes, first on the panicking
// thread (reusing that dirty local) and then on a fresh one, commits.
func TestHandlerPanicReleasesGuards(t *testing.T) {
	type boom struct{}
	errRollback := errors.New("roll back")
	for _, proto := range stm.Protocols() {
		for _, where := range []string{"commit-handler", "abort-handler"} {
			for _, tg := range panicTargets(t) {
				t.Run(proto+"/"+where+"/"+tg.name, func(t *testing.T) {
					th := newTh(1)
					if err := th.SetProtocol(proto); err != nil {
						t.Fatal(err)
					}
					body := func(tx *stm.Tx) error {
						if where == "commit-handler" {
							tx.OnCommit(func() { panic(boom{}) })
							tg.ops(tx)
							return nil
						}
						tg.ops(tx)
						tx.OnAbort(func() { panic(boom{}) })
						return errRollback
					}
					recovered := func() (r any) {
						defer func() { r = recover() }()
						_ = th.Atomic(body)
						return nil
					}()
					if recovered != (boom{}) {
						t.Fatalf("recovered %v, want the handler's panic value", recovered)
					}
					writerCommits(t, th, tg)
					writerCommits(t, newTh(2), tg)
				})
			}
		}
	}
}

// writerCommits runs tg.write on th and fails if it blocks on a leaked
// guard.
func writerCommits(t *testing.T, th *stm.Thread, tg panicTarget) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- th.Atomic(func(tx *stm.Tx) error { tg.write(tx); return nil }) }()
	select {
	case err := <-done:
		must(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked: a guard leaked through the handler panic")
	}
}

// TestCommitHandlerComparatorPanic panics inside the sorted map's own
// commit handler — a comparator armed only for the handler window
// rejects the buffered key while the write is applied — on both
// layouts. The guards must be free again, and the thread's recycled
// local, left mid-commit, must not leak its unapplied buffer into the
// thread's next transaction on the map.
func TestCommitHandlerComparatorPanic(t *testing.T) {
	const poison = 13
	var armed atomic.Bool
	cmp := func(a, b int) int {
		if armed.Load() && (a == poison || b == poison) {
			panic("poisoned key")
		}
		return a - b
	}
	for _, stripes := range []int{1, 4} {
		tm := NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
			return collections.NewTreeMapFunc[int, int](cmp)
		}, []int{16, 32, 48})
		if stripes == 1 {
			tm = NewTransactionalSortedMap[int, int](collections.NewTreeMapFunc[int, int](cmp))
		}
		atomically(t, newTh(9), func(tx *stm.Tx) { tm.Put(tx, 2, 2) })
		th := newTh(1)
		recovered := func() (r any) {
			defer func() { r = recover() }()
			_ = th.Atomic(func(tx *stm.Tx) error {
				tx.OnCommit(func() { armed.Store(true) })
				tm.Put(tx, poison, poison)
				return nil
			})
			return nil
		}()
		armed.Store(false)
		if recovered != "poisoned key" {
			t.Fatalf("%d stripes: recovered %v, want the comparator's panic", stripes, recovered)
		}
		writerCommits(t, th, panicTarget{write: func(tx *stm.Tx) { tm.Put(tx, 2, 3) }})
		atomically(t, newTh(2), func(tx *stm.Tx) {
			if v, ok := tm.Get(tx, 2); !ok || v != 3 {
				t.Errorf("%d stripes: Get(2) = (%d, %v), want 3", stripes, v, ok)
			}
			if _, ok := tm.Get(tx, poison); ok {
				t.Errorf("%d stripes: the panicked write of %d was applied later", stripes, poison)
			}
			if keys := tm.Keys(tx); len(keys) != 1 {
				t.Errorf("%d stripes: keys %v, want [2]", stripes, keys)
			}
		})
	}
}
