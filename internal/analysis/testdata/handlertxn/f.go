// Package fixture exercises the handler-txn rule.
package fixture

import (
	"tcc/internal/stm"
)

type registry struct {
	commits int
	owner   *stm.Handle
}

// bad: commit handler touches transactional state.
func handlerVar(th *stm.Thread, v *stm.Var[int]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommit(func() {
			v.SetCommitted(1) // want handler-txn
		})
		return nil
	})
}

// bad: abort handler starts a new top-level transaction.
func handlerAtomic(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnTopAbort(func() {
			err := th.Atomic(func(tx2 *stm.Tx) error { return nil }) // want handler-txn
			_ = err
		})
		return nil
	})
}

// bad: handler opens a nested transaction on the dead Tx.
func handlerOpen(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnAbort(func() {
			err := tx.Open(func(o *stm.Tx) error { return nil }) // want handler-txn
			_ = err
		})
		return nil
	})
}

// bad: handler uses the captured *stm.Tx (dead by the time it runs).
func handlerCapturesTx(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommit(func() {
			tx.Poll() // want handler-txn
		})
		return nil
	})
}

// clean: the collection-class pattern — capture Handle and Thread
// before registering; the handler compensates with plain stores (the
// commit protocol already holds the registered guard for the whole
// handler window, so the handler takes no lock of its own) and charges
// time via DeferTick.
func cleanHandler(th *stm.Thread, reg *registry) error {
	return th.Atomic(func(tx *stm.Tx) error {
		h := tx.Handle()
		thd := tx.Thread()
		tx.OnTopCommit(func() {
			reg.commits++
			reg.owner = h
			thd.DeferTick(8)
		})
		return nil
	})
}

// fieldHandlers holds a handler pair built once and registered through
// its fields on every transaction, as the collection classes do.
type fieldHandlers struct {
	onCommit, onAbort func()
}

// bad: a handler stored in a field and registered through it is still
// a handler — assigned after construction or in a composite literal.
func handlerInField(th *stm.Thread, g *stm.Guard, v *stm.Var[int]) error {
	fh := &fieldHandlers{onAbort: func() {
		v.SetCommitted(0) // want handler-txn
	}}
	fh.onCommit = func() {
		v.SetCommitted(1) // want handler-txn
	}
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommit(fh.onCommit)
		tx.OnAbortGuarded(g, fh.onAbort)
		return nil
	})
}
