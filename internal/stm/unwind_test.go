package stm

// Unwinding tests: the violation reason is visible whenever the
// violated status is, and a real panic in a body or an open-nested
// child rolls the attempt back before it propagates.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestViolationRaceAttribution races a violator against victims that
// touch no shared memory, so every failed attempt is a semantic
// violation: none may be counted as a memory abort (the victim losing
// its point-of-no-return CAS) or as "(unspecified)" (the victim's
// check seeing the status before the reason). Whenever a victim sees
// StatusViolated, the violator's reason must already be readable. Run
// it under -race.
func TestViolationRaceAttribution(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			var slot atomic.Pointer[Handle]
			var stop atomic.Bool
			violator := make(chan struct{})
			go func() {
				defer close(violator)
				for !stop.Load() {
					if h := slot.Load(); h != nil {
						h.Violate("hammer: key conflict")
					}
					runtime.Gosched()
				}
			}()
			const workers = 2
			stats := make([]Stats, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := protoThread(t, proto, int64(w+1))
					for i := 0; i < 2000; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							slot.Store(tx.Handle())
							tx.Poll()
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
					stats[w] = th.Stats
				}(w)
			}
			wg.Wait()
			stop.Store(true)
			<-violator
			var all Stats
			for _, s := range stats {
				all.Add(s)
			}
			if all.Aborts != 0 {
				t.Errorf("%d violations counted as memory aborts", all.Aborts)
			}
			if n := all.ViolationsByReason["(unspecified)"]; n != 0 {
				t.Errorf("%d violations counted without a reason (of %d)", n, all.Violations)
			}
			if all.Violations != all.ViolationsByReason["hammer: key conflict"] {
				t.Errorf("violations by reason = %v, total %d", all.ViolationsByReason, all.Violations)
			}
		})
	}
}

// TestPanicUnwindsAttempt: a real panic in a body, in an AtomicRead
// body that fell back to the retry path, or in an open-nested child
// rolls the attempt back before it reaches the caller — abort handlers
// run, buffered and child writes vanish, every lockword is free — and
// the panic value arrives unchanged.
func TestPanicUnwindsAttempt(t *testing.T) {
	type boom struct{ where string }
	wheres := []string{"body", "read-body", "open-child"}
	for _, proto := range Protocols() {
		for _, where := range wheres {
			t.Run(proto+"/"+where, func(t *testing.T) {
				v, w := NewVar(0), NewVar(0)
				th := protoThread(t, proto, 1)
				aborted := false
				var victim *Handle
				body := func(tx *Tx) error {
					v.Set(tx, 1)
					tx.OnAbort(func() { aborted = true })
					victim = tx.Handle()
					if where == "open-child" {
						_ = tx.Open(func(o *Tx) error {
							w.Set(o, 5)
							panic(boom{where})
						})
					}
					panic(boom{where})
				}
				got := func() (r any) {
					defer func() { r = recover() }()
					if where == "read-body" {
						_ = th.AtomicRead(body)
					} else {
						_ = th.Atomic(body)
					}
					return nil
				}()
				if got != (boom{where}) {
					t.Fatalf("recovered %v, want the body's panic value", got)
				}
				if !aborted {
					t.Error("abort handler did not run before the panic escaped")
				}
				if victim.Status() != StatusAborted {
					t.Errorf("panicked attempt left in status %v", victim.Status())
				}
				if wordLocked(v.core.word.Load()) || wordLocked(w.core.word.Load()) {
					t.Fatal("a lockword is still held after the panic")
				}
				// The same thread runs the next transaction, and a
				// writer of the same variables commits first time.
				if err := th.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+10)
					w.Set(tx, w.Get(tx)+10)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if v.GetCommitted() != 10 || w.GetCommitted() != 10 {
					t.Fatalf("v, w = %d, %d; want 10, 10", v.GetCommitted(), w.GetCommitted())
				}
				if th.Stats.Aborts != 0 || th.Stats.Violations != 0 {
					t.Fatalf("writer after the panic retried: %+v", th.Stats)
				}
			})
		}
	}
}

// TestHandlerPanicReleasesGuards: a commit handler or an abort handler
// that panics runs with the transaction's guard footprint held; the
// footprint must be released before the panic leaves the STM, so the
// next transaction on the same guard does not block forever.
func TestHandlerPanicReleasesGuards(t *testing.T) {
	type boom struct{ where string }
	errRollback := errors.New("roll back")
	for _, proto := range Protocols() {
		for _, where := range []string{"commit", "abort", "abort-after-body-panic"} {
			t.Run(proto+"/"+where, func(t *testing.T) {
				g := NewGuard()
				v := NewVar(0)
				th := protoThread(t, proto, 1)
				got := func() (r any) {
					defer func() { r = recover() }()
					_ = th.Atomic(func(tx *Tx) error {
						v.Set(tx, 1)
						switch where {
						case "commit":
							tx.OnCommitGuarded(g, func() { panic(boom{where}) })
							return nil
						case "abort":
							tx.OnAbortGuarded(g, func() { panic(boom{where}) })
							return errRollback
						default:
							tx.OnAbortGuarded(g, func() { panic(boom{where}) })
							panic("body")
						}
					})
					return nil
				}()
				if got != (boom{where}) {
					t.Fatalf("recovered %v, want the handler's panic value", got)
				}
				done := make(chan error, 1)
				go func() {
					done <- th.Atomic(func(tx *Tx) error {
						v.Set(tx, v.Get(tx)+10)
						tx.OnCommitGuarded(g, func() {})
						return nil
					})
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("next transaction on the guard blocked: the footprint leaked")
				}
				want := 10
				if where == "commit" {
					want = 11 // the memory commit preceded the handler
				}
				if v.GetCommitted() != want {
					t.Fatalf("v = %d, want %d", v.GetCommitted(), want)
				}
			})
		}
	}
}
