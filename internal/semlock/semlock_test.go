package semlock

import (
	"testing"

	"tcc/internal/stm"
)

// activeHandle returns a Handle in the Active state, as lock owners are
// in practice. Handles are created by running transactions; for table
// tests a zero Handle is Active by construction.
func activeHandle() Owner { return &stm.Handle{} }

func TestOwnerSetLockUnlock(t *testing.T) {
	s := NewOwnerSet()
	a, b := activeHandle(), activeHandle()
	s.Lock(a)
	s.Lock(a) // idempotent
	s.Lock(b)
	if !s.Holds(a) || !s.Holds(b) || s.Len() != 2 {
		t.Fatalf("holders wrong: len=%d", s.Len())
	}
	s.Unlock(a)
	if s.Holds(a) || !s.Holds(b) {
		t.Fatal("unlock removed wrong owner")
	}
	s.Unlock(a) // no-op
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestOwnerSetViolateOthers(t *testing.T) {
	s := NewOwnerSet()
	self, other1, other2 := activeHandle(), activeHandle(), activeHandle()
	s.Lock(self)
	s.Lock(other1)
	s.Lock(other2)
	n := s.ViolateOthers(self, "size conflict")
	if n != 2 {
		t.Fatalf("violated %d, want 2", n)
	}
	if self.Status() != stm.StatusActive {
		t.Fatal("self was violated")
	}
	if other1.Status() != stm.StatusViolated || other2.Status() != stm.StatusViolated {
		t.Fatal("others not violated")
	}
	if other1.ViolationReason() != "size conflict" {
		t.Fatalf("reason = %q", other1.ViolationReason())
	}
}

func TestKeyTableBasics(t *testing.T) {
	kt := NewKeyTable[string]()
	a, b := activeHandle(), activeHandle()
	kt.Lock("x", a)
	kt.Lock("x", b)
	kt.Lock("y", a)
	if !kt.Holds("x", a) || !kt.Holds("x", b) || !kt.Holds("y", a) {
		t.Fatal("locks not recorded")
	}
	if kt.Holds("y", b) {
		t.Fatal("phantom lock")
	}
	kt.Unlock("x", a)
	if kt.Holds("x", a) || !kt.Holds("x", b) {
		t.Fatal("unlock removed wrong lock")
	}
	kt.Unlock("x", b)
	if kt.Locked("x") {
		t.Fatal("key still locked after all unlocks")
	}
	if len(kt.first) != 1 || kt.extra != nil {
		t.Fatalf("empty key entries not reclaimed: %d keys, extra owners %v", len(kt.first), kt.extra)
	}
	kt.Unlock("z", a) // unlocking unknown key is a no-op
}

func TestKeyTableViolateOthersIsPerKey(t *testing.T) {
	kt := NewKeyTable[int]()
	self, other := activeHandle(), activeHandle()
	bystander := activeHandle()
	kt.Lock(1, self)
	kt.Lock(1, other)
	kt.Lock(2, bystander)
	if n := kt.ViolateOthers(1, self, "key conflict"); n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if bystander.Status() != stm.StatusActive {
		t.Fatal("reader of a different key was violated")
	}
	if other.Status() != stm.StatusViolated {
		t.Fatal("conflicting reader not violated")
	}
}

func TestKeyTableKeyedReasons(t *testing.T) {
	kt := NewKeyTable[int]()
	self, other := activeHandle(), activeHandle()
	kt.Lock(17, self)
	kt.Lock(17, other)
	kt.SetKeyedReasons(true)
	if n := kt.ViolateOthers(17, self, "TestMap: key conflict"); n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if got := other.ViolationReason(); got != "TestMap: key conflict [key=17]" {
		t.Fatalf("reason = %q, want key detail appended", got)
	}
	// Off by default: a fresh table reports the plain reason.
	kt2 := NewKeyTable[int]()
	victim := activeHandle()
	kt2.Lock(3, victim)
	kt2.ViolateOthers(3, activeHandle(), "plain")
	if got := victim.ViolationReason(); got != "plain" {
		t.Fatalf("reason = %q, want %q", got, "plain")
	}
}

func TestViolateSkipsSerializedOwners(t *testing.T) {
	s := NewOwnerSet()
	self, done := activeHandle(), activeHandle()
	// done has already committed: its locks are stale-but-harmless
	// until its release handler runs; it must not count as a conflict.
	if !done.Violate("warm up to active first") {
		t.Fatal("setup violate failed")
	}
	s.Lock(self)
	s.Lock(done)
	// done is now Violated; a second violate reports true (it will
	// abort), so use a Prepared/Committed-like owner instead: build one
	// by committing a real transaction.
	th := stm.NewThread(&stm.RealClock{}, 1)
	var committed Owner
	if err := th.Atomic(func(tx *stm.Tx) error {
		committed = tx.Handle()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Lock(committed)
	n := s.ViolateOthers(self, "conflict")
	// 'done' (violated) counts, 'committed' must not.
	if n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if committed.Status() != stm.StatusCommitted {
		t.Fatal("committed owner state changed")
	}
}

func cmpInt(a, b int) int { return a - b }

func TestRangeTableCovers(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	lo, hi := 10, 20
	cases := []struct {
		name string
		e    *RangeEntry[int]
		k    int
		want bool
	}{
		{"inside", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 15, true},
		{"at-lo", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 10, true},
		{"at-hi-incl", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 20, true},
		{"at-hi-excl", &RangeEntry[int]{Lo: &lo, Hi: &hi, HiExcl: true}, 20, false},
		{"below", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 9, false},
		{"above", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 21, false},
		{"unbounded-lo", &RangeEntry[int]{Hi: &hi}, -100, true},
		{"unbounded-hi", &RangeEntry[int]{Lo: &lo}, 1000, true},
		{"unbounded-both", &RangeEntry[int]{}, 0, true},
	}
	for _, c := range cases {
		if got := rt.Covers(c.e, c.k); got != c.want {
			t.Errorf("%s: Covers(%d) = %v, want %v", c.name, c.k, got, c.want)
		}
	}
}

func TestRangeTableViolateCovering(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	self, iterA, iterB := activeHandle(), activeHandle(), activeHandle()
	lo1, hi1 := 0, 10
	lo2, hi2 := 50, 60
	ea := &RangeEntry[int]{Lo: &lo1, Hi: &hi1, Owner: iterA}
	eb := &RangeEntry[int]{Lo: &lo2, Hi: &hi2, Owner: iterB}
	es := &RangeEntry[int]{Lo: &lo1, Hi: &hi2, Owner: self}
	rt.Add(ea)
	rt.Add(eb)
	rt.Add(es)
	if n := rt.ViolateCovering(5, self, "range conflict"); n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if iterA.Status() != stm.StatusViolated {
		t.Fatal("covering iterator not violated")
	}
	if iterB.Status() != stm.StatusViolated {
		// 5 is outside [50,60]
		t.Log("ok: iterB untouched")
	}
	if iterB.Status() == stm.StatusViolated {
		t.Fatal("non-covering iterator violated")
	}
	rt.Remove(ea)
	if rt.Len() != 2 {
		t.Fatalf("len = %d, want 2", rt.Len())
	}
}

func TestRangeEntryWideningInPlace(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	owner, self := activeHandle(), activeHandle()
	lo := 0
	e := &RangeEntry[int]{Lo: &lo, Owner: owner}
	hi := 5
	e.Hi = &hi
	rt.Add(e)
	if rt.ViolateCovering(7, self, "x") != 0 {
		t.Fatal("7 should be outside [0,5]")
	}
	// Iterator advances: widen to 10.
	hi2 := 10
	e.Hi = &hi2
	if rt.ViolateCovering(7, self, "x") != 1 {
		t.Fatal("widened range should cover 7")
	}
}

func TestRangeTableExclusiveLowerBound(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	lo, hi := 10, 20
	strict := &RangeEntry[int]{Lo: &lo, LoExcl: true, Hi: &hi}
	if rt.Covers(strict, 10) {
		t.Fatal("exclusive lower bound covered its endpoint")
	}
	if !rt.Covers(strict, 11) || !rt.Covers(strict, 20) {
		t.Fatal("interior/upper coverage wrong")
	}
	inclusive := &RangeEntry[int]{Lo: &lo, Hi: &hi}
	if !rt.Covers(inclusive, 10) {
		t.Fatal("inclusive lower bound missed its endpoint")
	}
}

// TestKeyTableSharedKeyOwners exercises a key held by several owners:
// the first owner lives in the table's map and the others in the
// overflow slices, which must be promoted, removed and dropped
// correctly whatever order the owners unlock in.
func TestKeyTableSharedKeyOwners(t *testing.T) {
	for _, order := range [][3]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}} {
		kt := NewKeyTable[int]()
		hs := [3]Owner{activeHandle(), activeHandle(), activeHandle()}
		for _, h := range hs {
			if !kt.Lock(5, h) {
				t.Fatal("first Lock reported the owner as already holding")
			}
			if kt.Lock(5, h) {
				t.Fatal("re-Lock reported a new owner")
			}
		}
		for i, idx := range order {
			kt.Unlock(5, hs[idx])
			if kt.Holds(5, hs[idx]) {
				t.Fatalf("order %v: owner %d still holds after Unlock", order, idx)
			}
			for _, rest := range order[i+1:] {
				if !kt.Holds(5, hs[rest]) {
					t.Fatalf("order %v: unlocking %d dropped owner %d", order, idx, rest)
				}
			}
		}
		if kt.Locked(5) || len(kt.first) != 0 || kt.extra != nil {
			t.Fatalf("order %v: entries not reclaimed (len %d, extra %v)", order, len(kt.first), kt.extra)
		}
	}
}

// TestKeyTableViolateOthersCountsExtraOwners: a committing writer
// violates every other owner of the key, whichever map holds it.
func TestKeyTableViolateOthersCountsExtraOwners(t *testing.T) {
	kt := NewKeyTable[int]()
	first, self, extra := activeHandle(), activeHandle(), activeHandle()
	kt.Lock(1, first)
	kt.Lock(1, self)
	kt.Lock(1, extra)
	if n := kt.ViolateOthers(1, self, "key conflict"); n != 2 {
		t.Fatalf("violated %d, want 2", n)
	}
	if first.Status() != stm.StatusViolated || extra.Status() != stm.StatusViolated || self.Status() != stm.StatusActive {
		t.Fatal("wrong owners violated")
	}
}

// TestRangeEntryInlineBounds: bounds set through SetLo/SetHi live in
// the entry, survive widening in place, and Reset clears them.
func TestRangeEntryInlineBounds(t *testing.T) {
	rt := NewRangeTable[int](func(a, b int) int { return a - b })
	o := activeHandle()
	e := &RangeEntry[int]{Owner: o}
	e.SetLo(10, true)
	e.SetHi(20, false)
	if rt.Covers(e, 10) || !rt.Covers(e, 11) || !rt.Covers(e, 20) || rt.Covers(e, 21) {
		t.Fatal("inline bounds (10, 20] not honored")
	}
	e.SetHi(30, true)
	if !rt.Covers(e, 29) || rt.Covers(e, 30) {
		t.Fatal("widened bound [.., 30) not honored")
	}
	e.Reset(o)
	if e.Lo != nil || e.Hi != nil || e.Owner != o || !rt.Covers(e, -1000) {
		t.Fatal("Reset left bounds behind")
	}
}
