// Package semlock implements the semantic lock tables of the paper's
// Tables 2, 5 and 8: key locks, size/empty/endpoint locks, and key-range
// locks, each mapping abstract state to the set of top-level
// transactions that have read it.
//
// Read operations take locks while executing (inside the collection's
// open-nested critical section); write operations detect conflicts at
// commit time by violating every other holder of the abstract state
// they change. The tables carry no internal synchronization: each
// transactional collection instance guards its tables with the same
// short critical section that protects the wrapped structure, which is
// this implementation's stand-in for the paper's low-level open-nested
// memory transactions (DESIGN.md §4, substitution 3).
package semlock

import (
	"fmt"

	"tcc/internal/stm"
)

// Owner identifies a lock-holding top-level transaction; violating an
// owner aborts that transaction (paper §4, program-directed abort).
type Owner = *stm.Handle

// sortOwners orders buf ascending by Handle.ID — the canonical
// violation order. Lock-table iteration order would otherwise decide
// the order in which victims are violated, and with it the event order
// of every trace taken under contention; sorting by the process-global
// handle id keeps deterministic-replay runs byte-identical. Handles
// created outside a transaction have id 0 and sort together; their
// relative order is unspecified (tests only). Insertion sort: owner
// sets are a handful of transactions, and unlike sort.Slice this keeps
// the sweep allocation-free (no interface boxing, no closure).
func sortOwners(buf []Owner) {
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].ID() < buf[j-1].ID(); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}

// recycleSweep clears a sweep buffer for reuse: the Owner pointers are
// dropped so a recycled buffer does not pin dead transaction handles,
// but the backing array is kept — the same recycling discipline as the
// STM's level and commit scratch pools. Each table owns one sweep
// buffer; the collection's critical section that guards the table also
// serializes the sweeps, so a single buffer per table suffices.
func recycleSweep(buf []Owner) []Owner {
	clear(buf)
	return buf[:0]
}

// removeOwner deletes o from owners by swapping the last holder into
// its place (holder order is irrelevant: sweeps sort), reporting
// whether o was present. The vacated tail slot is cleared so the
// backing array does not pin the handle.
func removeOwner(owners []Owner, o Owner) ([]Owner, bool) {
	for i, x := range owners {
		if x == o {
			last := len(owners) - 1
			owners[i] = owners[last]
			owners[last] = nil
			return owners[:last], true
		}
	}
	return owners, false
}

// OwnerSet is a single abstract lock — the size lock or the empty
// lock — held by any number of readers. The holders are a small slice:
// a set is held by a handful of concurrent transactions at most, and a
// striped map carries two sets per stripe, so a slice (no map header,
// no hash groups, nothing allocated until the first holder) keeps the
// lock both cheaper to take and smaller to retain than a map.
type OwnerSet struct {
	owners []Owner
}

// NewOwnerSet creates an empty lock.
func NewOwnerSet() *OwnerSet { return &OwnerSet{} }

// Lock records o as a holder; re-locking is idempotent.
func (s *OwnerSet) Lock(o Owner) {
	if !s.Holds(o) {
		s.owners = append(s.owners, o)
	}
}

// Unlock removes o; unlocking a non-holder is a no-op.
func (s *OwnerSet) Unlock(o Owner) { s.owners, _ = removeOwner(s.owners, o) }

// Holds reports whether o holds the lock.
func (s *OwnerSet) Holds(o Owner) bool {
	for _, x := range s.owners {
		if x == o {
			return true
		}
	}
	return false
}

// Len returns the number of holders.
func (s *OwnerSet) Len() int { return len(s.owners) }

// ViolateOthers aborts every holder other than self — in ascending
// handle-id order, for deterministic traces — and returns how many
// Violate calls actually landed on still-active transactions. The
// holders are sorted in place (their order carries no meaning), so the
// sweep needs no scratch buffer.
func (s *OwnerSet) ViolateOthers(self Owner, reason string) int {
	sortOwners(s.owners)
	n := 0
	for _, o := range s.owners {
		if o != self && o.Violate(reason) {
			n++
		}
	}
	return n
}

// KeyTable is the key2lockers table of paper Table 3: for each key, the
// set of transactions that have read that key's mapping (or its
// absence).
//
// A key is almost always locked by one transaction at a time, so the
// table stores each locked key's first owner directly in one map and
// keeps the rare further owners in a second map of small slices. That
// second map exists only while some key has more than one owner and is
// dropped again when the last such key empties, so a lock/unlock cycle
// on an uncontended key allocates nothing once the first map has grown.
type KeyTable[K comparable] struct {
	first map[K]Owner
	extra map[K][]Owner
	// keyed makes ViolateOthers append the conflicting key to the
	// violation reason, so conflict profiles attribute semantic aborts
	// to individual keys. Off by default: formatting the key costs an
	// allocation per violated transaction, and it splits one logical
	// hotspot across as many heatmap rows as there are hot keys.
	keyed bool
	sweep []Owner // recycled violation-sweep scratch (see recycleSweep)
}

// NewKeyTable creates an empty table.
func NewKeyTable[K comparable]() *KeyTable[K] {
	return &KeyTable[K]{first: make(map[K]Owner)}
}

// SetKeyedReasons toggles per-key detail in violation reasons (see the
// keyed field). Call during setup, before concurrent use.
func (t *KeyTable[K]) SetKeyedReasons(on bool) { t.keyed = on }

// Lock records o as a reader of key k and reports whether o was not
// already one (re-locking is idempotent).
func (t *KeyTable[K]) Lock(k K, o Owner) bool {
	f, ok := t.first[k]
	if !ok {
		t.first[k] = o
		return true
	}
	if f == o {
		return false
	}
	xs := t.extra[k]
	for _, x := range xs {
		if x == o {
			return false
		}
	}
	if t.extra == nil {
		t.extra = make(map[K][]Owner)
	}
	t.extra[k] = append(xs, o)
	return true
}

// Unlock removes o as a reader of k, dropping empty entries so the
// table does not grow with dead keys.
func (t *KeyTable[K]) Unlock(k K, o Owner) {
	f, ok := t.first[k]
	if !ok {
		return
	}
	xs := t.extra[k]
	if f == o {
		if len(xs) == 0 {
			delete(t.first, k)
			return
		}
		// Promote the last extra owner to first.
		t.first[k] = xs[len(xs)-1]
		xs[len(xs)-1] = nil
		xs = xs[:len(xs)-1]
	} else {
		var had bool
		if xs, had = removeOwner(xs, o); !had {
			return
		}
	}
	if len(xs) > 0 {
		t.extra[k] = xs
		return
	}
	delete(t.extra, k)
	if len(t.extra) == 0 {
		t.extra = nil
	}
}

// Holds reports whether o holds a lock on k.
func (t *KeyTable[K]) Holds(k K, o Owner) bool {
	f, ok := t.first[k]
	if !ok {
		return false
	}
	if f == o {
		return true
	}
	for _, x := range t.extra[k] {
		if x == o {
			return true
		}
	}
	return false
}

// Locked reports whether any transaction holds a lock on k.
func (t *KeyTable[K]) Locked(k K) bool {
	_, ok := t.first[k]
	return ok
}

// ViolateOthers aborts every reader of k other than self, in ascending
// handle-id order (see sortOwners). With keyed reasons enabled the
// reason each victim records carries the key, e.g.
// `TestMap: key conflict [key=17]`.
func (t *KeyTable[K]) ViolateOthers(k K, self Owner, reason string) int {
	f, ok := t.first[k]
	if !ok {
		return 0
	}
	victims := append(t.sweep, f)
	victims = append(victims, t.extra[k]...)
	sortOwners(victims)
	n := 0
	detailed := ""
	for _, o := range victims {
		if o == self {
			continue
		}
		if t.keyed && detailed == "" {
			detailed = fmt.Sprintf("%s [key=%v]", reason, k)
		}
		r := reason
		if detailed != "" {
			r = detailed
		}
		if o.Violate(r) {
			n++
		}
	}
	t.sweep = recycleSweep(victims)
	return n
}

// RangeEntry is one key-range lock, typically owned by an iterator or a
// navigation query: the interval of keys whose membership the owner has
// observed. Lo and Hi are nil when unbounded; Lo is inclusive unless
// LoExcl is set (a HigherKey query's strict bound), Hi is inclusive
// unless HiExcl is set (a view's exclusive upper bound or a LowerKey
// query's strict bound).
type RangeEntry[K comparable] struct {
	Lo, Hi *K
	LoExcl bool
	HiExcl bool
	Owner  Owner
	// lo and hi are the bound storage SetLo and SetHi point Lo and Hi
	// at, so an entry holds its bounds without allocating them.
	lo, hi K
}

// SetLo bounds e below by k (exclusive when excl), storing k in e.
func (e *RangeEntry[K]) SetLo(k K, excl bool) {
	e.lo = k
	e.Lo, e.LoExcl = &e.lo, excl
}

// SetHi bounds e above by k (exclusive when excl), storing k in e.
func (e *RangeEntry[K]) SetHi(k K, excl bool) {
	e.hi = k
	e.Hi, e.HiExcl = &e.hi, excl
}

// Reset clears e's bounds — leaving it unbounded on both sides — and
// makes o its owner, so a released entry can be reused for a new lock.
func (e *RangeEntry[K]) Reset(o Owner) { *e = RangeEntry[K]{Owner: o} }

// RangeTable is the rangeLockers set of paper Table 6. As the paper
// does, it is a simple set scanned linearly for conflicts — "an
// alternative would have been to use an interval tree, but the extra
// complexity and potential overhead seemed unnecessary for the common
// case" (§3.2).
type RangeTable[K comparable] struct {
	cmp     func(a, b K) int
	entries map[*RangeEntry[K]]struct{}
	sweep   []Owner // recycled violation-sweep scratch (see recycleSweep)
}

// NewRangeTable creates an empty table ordered by cmp.
func NewRangeTable[K comparable](cmp func(a, b K) int) *RangeTable[K] {
	return &RangeTable[K]{cmp: cmp, entries: make(map[*RangeEntry[K]]struct{})}
}

// Add inserts e; the caller keeps the pointer and may widen e's bounds
// in place as its iterator advances (under the same critical section
// that guards the table).
func (t *RangeTable[K]) Add(e *RangeEntry[K]) { t.entries[e] = struct{}{} }

// Remove deletes e.
func (t *RangeTable[K]) Remove(e *RangeEntry[K]) { delete(t.entries, e) }

// Len returns the number of range locks.
func (t *RangeTable[K]) Len() int { return len(t.entries) }

// Covers reports whether e's interval contains k.
func (t *RangeTable[K]) Covers(e *RangeEntry[K], k K) bool {
	if e.Lo != nil {
		c := t.cmp(k, *e.Lo)
		if c < 0 || (c == 0 && e.LoExcl) {
			return false
		}
	}
	if e.Hi != nil {
		c := t.cmp(k, *e.Hi)
		if c > 0 || (c == 0 && e.HiExcl) {
			return false
		}
	}
	return true
}

// ViolateCovering aborts the owner of every range containing k, other
// than self, in ascending owner handle-id order (see sortOwners).
func (t *RangeTable[K]) ViolateCovering(k K, self Owner, reason string) int {
	victims := t.sweep
	for e := range t.entries {
		if e.Owner == self || !t.Covers(e, k) {
			continue
		}
		victims = append(victims, e.Owner)
	}
	sortOwners(victims)
	n := 0
	var prev Owner
	for _, o := range victims {
		if o == prev {
			// Several of one owner's ranges may cover k; one Violate is
			// enough and keeps the count meaningful.
			continue
		}
		prev = o
		if o.Violate(reason) {
			n++
		}
	}
	t.sweep = recycleSweep(victims)
	return n
}
