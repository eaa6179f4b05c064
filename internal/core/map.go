// Package core implements the paper's contribution: transactional
// collection classes. They wrap existing, non-thread-safe collection
// implementations (internal/collections) and make them usable from
// long-running transactions without the unnecessary memory-level
// conflicts that wreck scalability when such structures are accessed
// directly inside transactions.
//
// The construction follows the paper's §5 guidelines exactly:
//
//   - The underlying structure is read only inside open-nested regions
//     that also take the appropriate semantic locks (key, size, empty,
//     range — Tables 2, 5, 8; a sorted map states Table 5's first/last
//     locks as range locks).
//   - Write operations never touch the underlying structure; they buffer
//     into transaction-local state (storeBuffer, addBuffer — Tables 3,
//     6, 9).
//   - A single commit handler per (transaction, collection), registered
//     by the first operation, applies the buffer, violates transactions
//     holding conflicting semantic locks, and releases this
//     transaction's locks.
//   - A single abort handler releases locks and discards buffers
//     (compensation for the open-nested lock acquisitions).
//
// The open-nested regions execute as tx.Open children whose body is a
// short critical section on a commit guard (stm.Guard) — the same guard
// the instance's handlers are registered under, so lock-table reads
// stay atomic with respect to commits; this is the substitution for the
// paper's low-level open-nested hardware transactions described in
// DESIGN.md §4 — immediate global visibility, compensation via abort
// handlers, and lock ownership by the top-level transaction are all
// preserved.
//
// # Striping
//
// TransactionalMap shards its internals — the wrapped map, the key-lock
// table, and the size/empty lock sets — into S hash(key)-indexed
// stripes, each fused with its own guard, so open-nested operations on
// disjoint keys of the same map run fully in parallel and a commit's
// guard footprint covers only the stripes its buffer touched
// (NewStripedTransactionalMap; DESIGN.md §4.2). NewTransactionalMap
// wraps one caller-supplied structure and is therefore single-stripe.
//
// TransactionalSortedMap stripes differently: range and endpoint locks
// are inherently cross-key, so hashing keys to stripes would force
// every iterator and navigation query to take every stripe. Instead
// NewRangeStripedTransactionalSortedMap partitions the *key space* into
// contiguous intervals — each stripe fuses its own guard, sorted shard,
// key-lock table and range-lock table — so point operations and range
// scans confined to one interval stay on one guard, and only scans and
// endpoint walks that genuinely span intervals touch several stripes
// (one guard at a time, in ascending interval order; see
// sortedmap_striped.go and DESIGN.md §4.5). TransactionalQueue
// similarly segments into lanes (NewSegmentedTransactionalQueue):
// semantic FIFO is preserved per lane, and producers/consumers on
// different lanes commit and run handler windows in parallel.
//
// Caveat, matching the paper's single-handler design choice (§5.1
// "Single versus multiple handlers"): collection operations performed
// inside a closed-nested child are merged into the transaction's one
// buffer, so they are rolled back correctly when the whole transaction
// aborts, but a closed-nested child that aborts and retries *after*
// performing collection operations does not unwind those buffered
// operations. Perform collection operations in the transaction body (as
// the paper's benchmarks do), not in partially-rolled-back children.
package core

import (
	"hash/maphash"
	"slices"
	"strconv"

	"tcc/internal/collections"
	"tcc/internal/obs/metrics"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// DefaultOpCost is the abstract cycle cost charged per collection
// operation (the open-nested critical section's work), calibrated to be
// comparable with the lock-based baseline's per-operation cost so that
// single-CPU runtimes of the configurations in the paper's figures are
// commensurable.
const DefaultOpCost = 40

// DefaultStripes is the stripe count NewStripedTransactionalMap uses
// when the caller passes stripes <= 0.
const DefaultStripes = 16

// maxStripes bounds the stripe count so a transaction's touched-stripe
// set fits one uint64 bitmask in its local state.
const maxStripes = 64

// stripeSeed hashes keys to stripes; one process-global seed keeps
// StripeOf stable for a key across every map (and across the map and
// the benchmarks that pick pairwise-disjoint stripes).
var stripeSeed = maphash.MakeSeed()

// mapWrite is one buffered write in the storeBuffer (Table 3: "map of
// keys to new values, special value for removed keys").
type mapWrite[K comparable, V any] struct {
	key     K
	val     V
	removed bool
	// resolved records that present holds whether the key was in the
	// committed map when this transaction read it under its key lock.
	// Blind writes (PutUnread/RemoveUnread) start unresolved: they
	// defer the presence question — and hence their size contribution
	// — until Size/IsEmpty resolves it or commit applies it.
	resolved, present bool
}

// maxRecycledEntries bounds the buffers a recycled mapLocal keeps
// between transactions: a transaction that locked or buffered more
// entries than this leaves its buffers to the collector instead of
// pinning their capacity for the rest of the thread's life (and every
// later clear would pay for that capacity too).
const maxRecycledEntries = 256

// mapLocal is the transaction-local state of Table 3 (and, for sorted
// maps, Table 6): the locks this transaction holds on this instance and
// the write buffer. One mapLocal per (thread, instance) is recycled
// through the thread (stm.Thread.Recycled), so it is cleared in place
// when the transaction's handlers finish, never re-made.
type mapLocal[K comparable, V any] struct {
	// keyLocks lists the keys this transaction key-locked, in locking
	// order; the key tables themselves answer whether a key is already
	// held (semlock.KeyTable.Lock is idempotent).
	keyLocks    []K
	sizeLocked  bool
	emptyLocked bool
	rangeLocks  []stripedRange[K]
	// freeRanges holds range-lock entries released from the tables by
	// releaseLocked, for reuse by later range locks (rangeEntry).
	freeRanges []*semlock.RangeEntry[K]
	// writes is the storeBuffer in insertion order, so the commit
	// handler applies — and violates — in the order the transaction
	// wrote, not in Go map iteration order; index maps each buffered
	// key to its position in writes.
	writes []mapWrite[K, V]
	index  map[K]int
	// sortedKeys is Table 6's sortedStoreBuffer: for sorted maps, the
	// buffered keys ascending by cmp, so iterators and navigation
	// queries enumerate local changes ordered instead of scanning the
	// buffer (values and removal markers stay in writes). A sorted
	// slice rather than a tree: a transaction buffers a handful of
	// keys, and the slice's capacity is recycled with the local.
	sortedKeys []K
	// cmp is the sorted map's comparator; nil for unsorted maps.
	cmp func(a, b K) int
	// touched is the bitmask of stripes in this transaction's guard
	// footprint for this instance: every stripe it read, wrote, or
	// registered a size/empty lock in. The commit/abort handler pair is
	// registered under the first touched stripe's guard; each later
	// stripe widens the footprint (stm.Tx.AddTopGuard) so the handlers
	// run with every touched stripe's guard held.
	touched uint64
	// registered records that the handler pair is registered for the
	// current attempt.
	registered bool
	// h and th are the handle and thread of the attempt the handler
	// pair is registered for. onCommit and onAbort are that pair, built
	// once per mapLocal: they read h and th from these fields, so
	// registering them again in a later transaction allocates nothing.
	h                 *stm.Handle
	th                *stm.Thread
	onCommit, onAbort func()
}

// recycleBuffer empties buf for reuse: the elements are zeroed so the
// buffer pins nothing, and a buffer grown past maxRecycledEntries is
// dropped.
func recycleBuffer[T any](buf []T) []T {
	if len(buf) > maxRecycledEntries {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// buffered returns k's buffered write, or nil. The pointer is valid
// until the next write is buffered.
func (l *mapLocal[K, V]) buffered(k K) *mapWrite[K, V] {
	if i, ok := l.index[k]; ok {
		return &l.writes[i]
	}
	return nil
}

// rangeEntry returns an unbounded range-lock entry owned by h, reusing
// one released by an earlier transaction when there is one.
func (l *mapLocal[K, V]) rangeEntry(h semlock.Owner) *semlock.RangeEntry[K] {
	n := len(l.freeRanges) - 1
	if n < 0 {
		return &semlock.RangeEntry[K]{Owner: h}
	}
	e := l.freeRanges[n]
	l.freeRanges[n] = nil
	l.freeRanges = l.freeRanges[:n]
	e.Reset(h)
	return e
}

// buffer appends a write of an unbuffered key to the storeBuffer,
// recording it in the sorted index too (sorted maps only).
func (l *mapLocal[K, V]) buffer(w mapWrite[K, V]) {
	if l.index == nil {
		l.index = make(map[K]int)
	}
	l.index[w.key] = len(l.writes)
	l.writes = append(l.writes, w)
	if l.cmp != nil {
		i, _ := slices.BinarySearchFunc(l.sortedKeys, w.key, l.cmp)
		l.sortedKeys = slices.Insert(l.sortedKeys, i, w.key)
	}
}

// reset clears the local state in place for the next attempt or
// transaction, keeping buffer capacity up to maxRecycledEntries. It
// touches no lock table: releaseLocked returns the locks first, and a
// local reset without that (its last attempt's handlers never ran to
// the end) belongs to a finished attempt whose handle no sweep can
// violate any more.
func (l *mapLocal[K, V]) reset() {
	if len(l.writes) > maxRecycledEntries {
		l.index = nil
	} else {
		clear(l.index)
	}
	l.writes = recycleBuffer(l.writes)
	l.sortedKeys = recycleBuffer(l.sortedKeys)
	l.keyLocks = recycleBuffer(l.keyLocks)
	l.rangeLocks = recycleBuffer(l.rangeLocks)
	l.sizeLocked, l.emptyLocked = false, false
	l.touched, l.registered = 0, false
	l.h, l.th = nil, nil
}

// stripedRange records one range lock a transaction holds, with the
// stripe whose table the entry lives in (always 0 on single-stripe
// instances). The stripe index is what lets releaseLocked return each
// entry to the table it came from after an interval-striped walk left
// entries in several stripes' tables.
type stripedRange[K comparable] struct {
	si int
	e  *semlock.RangeEntry[K]
}

// sortedExt carries the extra shared state of TransactionalSortedMap
// (Table 6): the sorted views of the wrapped shards and the range lock
// tables. A single-stripe sorted map has one shard and one range table;
// a range-striped one (see sortedmap_striped.go) has one of each per
// interval stripe, split by the boundaries slice.
type sortedExt[K comparable, V any] struct {
	// cmp is the comparator shared by every shard (captured at
	// construction, read-only thereafter).
	cmp func(a, b K) int
	// sms[i] is stripe i's committed sorted shard — the same object as
	// stripes[i].m, retyped to its sorted interface.
	sms []collections.SortedMap[K, V]
	// boundaries[i] is the inclusive lower bound of stripe i+1's
	// interval: stripe 0 owns keys below boundaries[0], stripe i owns
	// [boundaries[i-1], boundaries[i]), the last stripe owns the tail.
	// Empty for single-stripe instances. Immutable after construction.
	boundaries []K
	// rangeLockers[i] is stripe i's range-lock table; an entry in table
	// i is only ever checked against keys of stripe i, so nil bounds
	// mean "to this stripe's edge", not the whole key space.
	rangeLockers []*semlock.RangeTable[K]
}

// stripeFor maps k to its interval stripe: the number of boundaries at
// or below k (binary search; boundaries is immutable).
func (x *sortedExt[K, V]) stripeFor(k K) int {
	lo, hi := 0, len(x.boundaries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.cmp(k, x.boundaries[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// mapStripe is one shard of a TransactionalMap: a slice of the
// committed state and of the semantic-lock tables, fused with its own
// commit guard. Every key hashes to exactly one stripe, which holds
// that key's committed mapping and key-lock entry; the size and empty
// lock sets are sharded too — a size/empty reader registers in every
// stripe's set, and a committing writer sweeps only the stripes whose
// local size (or local emptiness) its buffer changed, under guards it
// already holds. A reader is therefore still violated by any committing
// insert or remove (the paper's Table 2 size semantics), but writers on
// disjoint keys never touch a shared counter line or a shared lock set.
type mapStripe[K comparable, V any] struct {
	// guard is this stripe's shard of the commit guard, fused with the
	// mutex that protects the stripe's slice of the wrapped map and the
	// lock tables: open-nested critical sections on this stripe are
	// short and lock only this guard, playing the role of the paper's
	// low-level open-nested transactions. Handlers of transactions that
	// touched this stripe run with it held (see mapLocal.touched).
	guard *stm.Guard
	// m holds the stripe's committed state (Table 3: "the underlying
	// Map instance").
	m collections.Map[K, V]
	// key2lockers and sizeLockers are the shared transaction state of
	// Table 3; emptyLockers implements the §5.1 isEmpty refinement.
	key2lockers  *semlock.KeyTable[K]
	sizeLockers  *semlock.OwnerSet
	emptyLockers *semlock.OwnerSet
	// violations counts semantic violations this stripe's sweeps landed
	// on other transactions (metrics plane; labels collection+stripe,
	// named by SetName). Incremented with atomic-only adds inside the
	// commit-guard hold window — the one in-window operation the
	// metrics discipline allows — and only when metrics.On().
	violations *metrics.Counter
}

// TransactionalMap wraps any collections.Map and provides concurrent,
// atomically composable access from transactions, using semantic
// concurrency control instead of memory-level dependencies (paper
// §3.1). It offers the same operations as the underlying Map interface
// and can serve as a drop-in replacement. See the package documentation
// for the striped internal layout.
type TransactionalMap[K comparable, V any] struct {
	// stripes has power-of-two length in [1, maxStripes]; stripe guard
	// ids are ascending in slice order (they are minted in order at
	// construction), which is what lets lockGuards hold several at once
	// without deadlocking against the commit protocol's sorted
	// footprint acquisition.
	stripes []*mapStripe[K, V]
	// mask is len(stripes)-1; 0 means single-stripe and StripeOf skips
	// hashing entirely.
	mask uint64
	// isEmptyViaSize makes IsEmpty take the size lock instead of the
	// empty-transition lock, reproducing the §5.1 ablation.
	isEmptyViaSize bool
	// eagerWriteCheck switches write operations to pessimistic conflict
	// detection (§5.1 "Alternatives to optimistic concurrency
	// control"): Put/Remove violate conflicting key-lock holders when
	// the operation is first performed instead of waiting until commit.
	// Conflicts surface earlier (less lost work for the writer) at the
	// price of aborting readers that might otherwise have committed
	// before the writer.
	eagerWriteCheck bool
	// opCost is the abstract cycle cost per operation.
	opCost uint64
	// name labels this instance in violation reasons, so lost-work
	// profiles attribute conflicts to specific structures (the paper's
	// TAPE-style analysis names District.orderTable etc.).
	name string
	// Precomputed violation reasons.
	reasonKey, reasonSize, reasonEmpty, reasonRange string
	// sorted is non-nil when this instance is a TransactionalSortedMap.
	sorted *sortedExt[K, V]
}

// newMapStripe builds one stripe around the given committed shard.
func newMapStripe[K comparable, V any](m collections.Map[K, V]) *mapStripe[K, V] {
	return &mapStripe[K, V]{
		guard:        stm.NewGuard(),
		m:            m,
		key2lockers:  semlock.NewKeyTable[K](),
		sizeLockers:  semlock.NewOwnerSet(),
		emptyLockers: semlock.NewOwnerSet(),
	}
}

// NewTransactionalMap wraps m. The wrapper assumes exclusive ownership:
// all subsequent access must go through the wrapper. Because it adopts
// one existing structure it is single-stripe; use
// NewStripedTransactionalMap (which builds its own shards) when
// disjoint-key operations on one hot map need to scale.
func NewTransactionalMap[K comparable, V any](m collections.Map[K, V]) *TransactionalMap[K, V] {
	tm := &TransactionalMap[K, V]{
		stripes: []*mapStripe[K, V]{newMapStripe(m)},
		opCost:  DefaultOpCost,
	}
	tm.SetName("map")
	return tm
}

// NewStripedTransactionalMap creates a map sharded into the given
// number of stripes (rounded up to a power of two, clamped to
// [1, 64]; stripes <= 0 selects DefaultStripes). newShard is called
// once per stripe to build that stripe's committed structure, so the
// shards start empty and the wrapper owns them outright.
func NewStripedTransactionalMap[K comparable, V any](newShard func() collections.Map[K, V], stripes int) *TransactionalMap[K, V] {
	n := normalizeStripes(stripes)
	tm := &TransactionalMap[K, V]{
		stripes: make([]*mapStripe[K, V], n),
		mask:    uint64(n - 1),
		opCost:  DefaultOpCost,
	}
	if n == 1 {
		tm.mask = 0
	}
	for i := range tm.stripes {
		tm.stripes[i] = newMapStripe(newShard())
	}
	tm.SetName("map")
	return tm
}

// normalizeStripes maps a requested stripe count to the supported
// power-of-two range.
func normalizeStripes(n int) int {
	if n <= 0 {
		n = DefaultStripes
	}
	if n > maxStripes {
		n = maxStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetName labels this instance in violation reasons so conflict
// profiles (harness.FormatViolationProfile) attribute lost work to
// specific structures. Striped instances label each stripe's guard
// "name.stripe[i]" — or "name.range[i]" for an interval-striped sorted
// map — so guard-wait heatmaps show the stripes working.
func (tm *TransactionalMap[K, V]) SetName(name string) {
	tm.name = name
	if len(tm.stripes) == 1 {
		tm.stripes[0].guard.SetLabel(name)
	} else if tm.sorted != nil {
		for i, st := range tm.stripes {
			st.guard.SetLabel(name + ".range[" + strconv.Itoa(i) + "]")
		}
	} else {
		for i, st := range tm.stripes {
			st.guard.SetLabel(name + ".stripe[" + strconv.Itoa(i) + "]")
		}
	}
	// Per-stripe violation counters reuse the guard-label naming, so
	// scrapes, CPU-profile labels and guard-wait heatmaps all attribute
	// to the same names. Registration locks the registry mutex — fine
	// here (setup time), never inside a guard window.
	for i, st := range tm.stripes {
		st.violations = metrics.Default.Counter(metrics.CollectionViolations,
			"Semantic violations landed by this collection stripe's conflict sweeps",
			metrics.L("collection", name), metrics.L("stripe", strconv.Itoa(i)))
	}
	tm.reasonKey = name + ": key conflict"
	tm.reasonSize = name + ": size conflict"
	tm.reasonEmpty = name + ": emptiness conflict"
	tm.reasonRange = name + ": range conflict"
}

// Name returns the label set by SetName.
func (tm *TransactionalMap[K, V]) Name() string { return tm.name }

// Guard returns stripe 0's commit guard — the instance guard of a
// single-stripe map. Code composing its own guarded handlers with a
// striped map should use StripeGuard(k) for the key it works with.
func (tm *TransactionalMap[K, V]) Guard() *stm.Guard { return tm.stripes[0].guard }

// Stripes returns the number of stripes (1 unless built by
// NewStripedTransactionalMap).
func (tm *TransactionalMap[K, V]) Stripes() int { return len(tm.stripes) }

// StripeOf returns the index of k's stripe: its hash stripe for a
// plain map, its interval stripe for a range-striped sorted map.
func (tm *TransactionalMap[K, V]) StripeOf(k K) int {
	if tm.mask == 0 {
		return 0
	}
	if tm.sorted != nil {
		return tm.sorted.stripeFor(k)
	}
	return int(maphash.Comparable(stripeSeed, k) & tm.mask)
}

// StripeGuard returns the commit guard of k's stripe, for code that
// composes its own guarded handlers with operations on k.
func (tm *TransactionalMap[K, V]) StripeGuard(k K) *stm.Guard {
	return tm.stripes[tm.StripeOf(k)].guard
}

// lockGuards locks every stripe guard, in ascending guard-id order
// (slice order; see the stripes field). Whole-map snapshots need all
// stripes pinned at once — a sequential stripe-at-a-time scan could see
// half of a multi-stripe commit — and the ascending order keeps the
// hold compatible with the commit protocol's sorted footprint
// acquisition, so it cannot deadlock. stmlint classifies a lockGuards
// call as opening a commit-guard hold window.
func (tm *TransactionalMap[K, V]) lockGuards() {
	for _, st := range tm.stripes {
		st.guard.Lock()
	}
}

// unlockGuards unlocks every stripe guard (closing the hold window).
func (tm *TransactionalMap[K, V]) unlockGuards() {
	for _, st := range tm.stripes {
		st.guard.Unlock()
	}
}

// lockStripeSpan locks the guards of stripes [lo, hi], in ascending
// guard-id order (slice order), for snapshot-mode navigation over a
// contiguous interval span of a range-striped sorted map. Like
// lockGuards, the ascending order keeps the hold compatible with the
// commit protocol's sorted footprint acquisition; stmlint classifies a
// lockStripeSpan call as opening a commit-guard hold window.
func (tm *TransactionalMap[K, V]) lockStripeSpan(lo, hi int) {
	for si := lo; si <= hi; si++ {
		tm.stripes[si].guard.Lock()
	}
}

// unlockStripeSpan unlocks the guards of stripes [lo, hi] (closing the
// hold window).
func (tm *TransactionalMap[K, V]) unlockStripeSpan(lo, hi int) {
	for si := lo; si <= hi; si++ {
		tm.stripes[si].guard.Unlock()
	}
}

// addRangeLock publishes e into stripe si's range-lock table and
// records it in the transaction's local state so releaseLocked can
// return it to the right table. Caller holds stripe si's guard.
func (tm *TransactionalMap[K, V]) addRangeLock(l *mapLocal[K, V], si int, e *semlock.RangeEntry[K]) {
	tm.sorted.rangeLockers[si].Add(e)
	l.rangeLocks = append(l.rangeLocks, stripedRange[K]{si: si, e: e})
}

// SetOpCost overrides the abstract cycle cost charged per operation.
func (tm *TransactionalMap[K, V]) SetOpCost(c uint64) { tm.opCost = c }

// SetKeyedConflicts toggles per-key detail in key-conflict violation
// reasons (semlock.KeyTable.SetKeyedReasons): conflict profiles then
// attribute semantic aborts to individual keys, at the price of one
// formatting allocation per violated transaction. Call during setup.
func (tm *TransactionalMap[K, V]) SetKeyedConflicts(on bool) {
	for _, st := range tm.stripes {
		st.key2lockers.SetKeyedReasons(on)
	}
}

// SetIsEmptyViaSize toggles the §5.1 ablation: when true, IsEmpty takes
// the size lock (conflicting with any size change) instead of the
// dedicated empty-transition lock.
func (tm *TransactionalMap[K, V]) SetIsEmptyViaSize(v bool) { tm.isEmptyViaSize = v }

// SetEagerWriteCheck toggles pessimistic write-conflict detection (the
// §5.1 alternative): writes abort conflicting readers at operation time
// rather than at commit.
func (tm *TransactionalMap[K, V]) SetEagerWriteCheck(v bool) { tm.eagerWriteCheck = v }

// local returns this transaction's local state for this instance,
// attaching it on first use. For a single-stripe instance the commit and
// abort handler pair is registered immediately (paper §5: "registered
// by the first open-nested transaction to commit"); a striped instance
// defers registration to the first touch so the footprint starts with
// the stripe actually used instead of pinning stripe 0 into every
// transaction's footprint.
//
// The local state itself is the thread's recycled one for this
// instance (stm.Thread.Recycled), allocated only on the thread's first
// transaction here or after eviction. A recycled local is clean when
// the last attempt that used it ran its handlers to the end; one whose
// attempt never did — a handler panicked, or a snapshot attempt fell
// back before registering — still has footprint bits set and is reset
// before reuse.
func (tm *TransactionalMap[K, V]) local(tx *stm.Tx) *mapLocal[K, V] {
	if l, ok := tx.Local(tm).(*mapLocal[K, V]); ok {
		return l
	}
	th := tx.Thread()
	l, _ := th.Recycled(tm).(*mapLocal[K, V])
	if l == nil {
		l = tm.newLocal()
		th.Recycle(tm, l)
	} else if l.touched != 0 {
		l.reset()
	}
	tx.SetLocal(tm, l)
	if len(tm.stripes) == 1 {
		l.touched = 1
		tm.register(tx, l)
	}
	return l
}

// newLocal allocates a local state and builds its handler pair. The
// handlers run with every touched stripe's guard held and end by
// clearing the local (releaseLocked), which is what makes it reusable.
func (tm *TransactionalMap[K, V]) newLocal() *mapLocal[K, V] {
	l := &mapLocal[K, V]{}
	if tm.sorted != nil {
		l.cmp = tm.sorted.cmp
	}
	l.onCommit = func() {
		th, n := l.th, len(l.writes)
		tm.applyLocked(l, l.h)
		th.DeferTick(tm.opCost * uint64(1+n))
	}
	l.onAbort = func() {
		th := l.th
		tm.releaseLocked(l, l.h)
		th.DeferTick(tm.opCost)
	}
	return l
}

// register installs the transaction's single commit/abort handler pair
// for this instance under the guard of the first stripe it touched.
// The handler bodies take no lock themselves: the commit/rollback
// protocol holds every touched stripe's guard (the footprint widened by
// touch) for the whole handler window.
func (tm *TransactionalMap[K, V]) register(tx *stm.Tx, l *mapLocal[K, V]) {
	l.registered = true
	l.h, l.th = tx.Handle(), tx.Thread()
	g := tm.stripes[firstStripe(l.touched)].guard
	tx.OnTopCommitGuarded(g, l.onCommit)
	tx.OnTopAbortGuarded(g, l.onAbort)
}

// firstStripe returns the index of the lowest set bit of a touched
// mask (the mask is never zero when this is called).
func firstStripe(mask uint64) int {
	i := 0
	for mask&1 == 0 {
		mask >>= 1
		i++
	}
	return i
}

// touch adds stripe si to the transaction's footprint for this
// instance, registering the handler pair on the first touch and
// widening the root-level guard footprint on later ones, and returns
// the stripe. It must run before (not inside) the open-nested critical
// section that locks the stripe's guard: registration itself takes no
// lock, and the footprint must be in place before the transaction can
// reach a handler window that walks the stripe.
func (tm *TransactionalMap[K, V]) touch(tx *stm.Tx, l *mapLocal[K, V], si int) *mapStripe[K, V] {
	st := tm.stripes[si]
	bit := uint64(1) << uint(si)
	if l.touched&bit != 0 {
		return st
	}
	l.touched |= bit
	if !l.registered {
		tm.register(tx, l)
		return st
	}
	tx.AddTopGuard(st.guard)
	return st
}

// touchAll puts every stripe into the footprint (whole-map operations:
// Size, IsEmpty, iteration).
func (tm *TransactionalMap[K, V]) touchAll(tx *stm.Tx, l *mapLocal[K, V]) {
	for si := range tm.stripes {
		tm.touch(tx, l, si)
	}
}

// lockKeyLocked takes (idempotently) the key lock for k on behalf of h.
// Caller holds k's stripe guard.
func (tm *TransactionalMap[K, V]) lockKeyLocked(l *mapLocal[K, V], h semlock.Owner, k K) {
	if tm.stripes[tm.StripeOf(k)].key2lockers.Lock(k, h) {
		l.keyLocks = append(l.keyLocks, k)
	}
}

// Get returns the value mapped to k as seen by tx: the transaction's
// own buffered write if any, otherwise the committed value read under a
// key lock inside an open-nested region (Table 2: get takes a "key lock
// on argument").
func (tm *TransactionalMap[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	if tx.IsSnapshot() {
		return tm.snapshotGet(tx, k)
	}
	l := tm.local(tx)
	if w := l.buffered(k); w != nil {
		if w.removed {
			var zero V
			return zero, false
		}
		return w.val, true
	}
	st := tm.touch(tx, l, tm.StripeOf(k))
	var v V
	var present bool
	_ = tx.Open(func(o *stm.Tx) error {
		st.guard.Lock()
		defer st.guard.Unlock()
		tm.lockKeyLocked(l, o.Handle(), k)
		v, present = st.m.Get(k)
		return nil
	})
	tx.Thread().Clock.Tick(tm.opCost)
	return v, present
}

// ContainsKey reports whether k is mapped, taking the same key lock as
// Get.
func (tm *TransactionalMap[K, V]) ContainsKey(tx *stm.Tx, k K) bool {
	_, ok := tm.Get(tx, k)
	return ok
}

// Put buffers a mapping of k to v and returns the previous value.
// Because it returns the old value it logically includes a read, so it
// takes the key lock (Table 2); the actual update is deferred to the
// commit handler. Use PutUnread when the old value is not needed — it
// creates no read dependency (§5.1 "Extensions to java.util.Map").
func (tm *TransactionalMap[K, V]) Put(tx *stm.Tx, k K, v V) (V, bool) {
	l := tm.local(tx)
	if w := l.buffered(k); w != nil {
		var old V
		had := !w.removed
		if had {
			old = w.val
		}
		w.val, w.removed = v, false
		return old, had
	}
	old, had := tm.readCommittedWrite(tx, l, k, true)
	l.buffer(mapWrite[K, V]{key: k, val: v, resolved: true, present: had})
	return old, had
}

// PutUnread buffers a mapping of k to v without reading or locking the
// old value: two transactions blindly writing the same key commute and
// may commit in either order (the paper's "LastModified" example). The
// key's stripe still joins the guard footprint — the commit handler
// will apply the write there.
func (tm *TransactionalMap[K, V]) PutUnread(tx *stm.Tx, k K, v V) {
	l := tm.local(tx)
	if w := l.buffered(k); w != nil {
		w.val, w.removed = v, false
		return
	}
	tm.touch(tx, l, tm.StripeOf(k))
	l.buffer(mapWrite[K, V]{key: k, val: v})
	tx.Thread().Clock.Tick(tm.opCost / 4)
}

// Remove buffers a removal of k and returns the removed value, taking a
// key lock for the read it implies.
func (tm *TransactionalMap[K, V]) Remove(tx *stm.Tx, k K) (V, bool) {
	l := tm.local(tx)
	var zero V
	if w := l.buffered(k); w != nil {
		var old V
		had := !w.removed
		if had {
			old = w.val
		}
		w.val, w.removed = zero, true
		return old, had
	}
	old, had := tm.readCommittedWrite(tx, l, k, true)
	l.buffer(mapWrite[K, V]{key: k, removed: true, resolved: true, present: had})
	return old, had
}

// RemoveUnread buffers a removal of k without reading the old value.
func (tm *TransactionalMap[K, V]) RemoveUnread(tx *stm.Tx, k K) {
	l := tm.local(tx)
	var zero V
	if w := l.buffered(k); w != nil {
		w.val, w.removed = zero, true
		return
	}
	tm.touch(tx, l, tm.StripeOf(k))
	l.buffer(mapWrite[K, V]{key: k, removed: true})
	tx.Thread().Clock.Tick(tm.opCost / 4)
}

// PutAll buffers every mapping of src (a derivative operation built on
// Put, as in the paper's primitive/derivative categorization).
func (tm *TransactionalMap[K, V]) PutAll(tx *stm.Tx, src map[K]V) {
	for k, v := range src {
		tm.Put(tx, k, v)
	}
}

// readCommitted reads k's committed mapping under its key lock. For
// write operations (forWrite), the eager-write-check ablation also
// performs the key-conflict detection immediately.
func (tm *TransactionalMap[K, V]) readCommitted(tx *stm.Tx, l *mapLocal[K, V], k K) (V, bool) {
	return tm.readCommittedWrite(tx, l, k, false)
}

func (tm *TransactionalMap[K, V]) readCommittedWrite(tx *stm.Tx, l *mapLocal[K, V], k K, forWrite bool) (V, bool) {
	st := tm.touch(tx, l, tm.StripeOf(k))
	var v V
	var present bool
	_ = tx.Open(func(o *stm.Tx) error {
		st.guard.Lock()
		defer st.guard.Unlock()
		h := o.Handle()
		tm.lockKeyLocked(l, h, k)
		if forWrite && tm.eagerWriteCheck {
			n := st.key2lockers.ViolateOthers(k, h, tm.reasonKey)
			if n > 0 && metrics.On() {
				st.violations.Add(uint64(n))
			}
		}
		v, present = st.m.Get(k)
		return nil
	})
	tx.Thread().Clock.Tick(tm.opCost)
	return v, present
}

// resolveBlindStripeLocked pins down the committed presence of every
// blindly written key that hashes to stripe si (taking its key lock) so
// the buffer's net size effect is well defined. Caller holds stripe
// si's guard.
func (tm *TransactionalMap[K, V]) resolveBlindStripeLocked(st *mapStripe[K, V], si int, l *mapLocal[K, V], h semlock.Owner) {
	for i := range l.writes {
		w := &l.writes[i]
		if !w.resolved && tm.StripeOf(w.key) == si {
			tm.lockKeyLocked(l, h, w.key)
			w.present = st.m.ContainsKey(w.key)
			w.resolved = true
		}
	}
}

// sizeNeutral reports whether the buffer is known to leave the map's
// size unchanged: every write resolved and the net delta zero. Blind
// writes count as size-changing until Size/IsEmpty resolves them.
func (l *mapLocal[K, V]) sizeNeutral() bool {
	d := 0
	for i := range l.writes {
		w := &l.writes[i]
		switch {
		case !w.resolved:
			return false
		case w.removed && w.present:
			d--
		case !w.removed && !w.present:
			d++
		}
	}
	return d == 0
}

// deltaLocked is the Table 3 delta: the buffer's net change to the
// map's size. The caller has resolved blind writes; only this
// transaction's local state is read.
func (tm *TransactionalMap[K, V]) deltaLocked(l *mapLocal[K, V]) int {
	d := 0
	for i := range l.writes {
		w := &l.writes[i]
		if w.removed {
			if w.present {
				d--
			}
		} else if !w.present {
			d++
		}
	}
	return d
}

// Size returns the number of mappings as seen by tx: the committed size
// plus the buffer's delta. It takes the size lock on every stripe, so
// any committing transaction that changes any stripe's size aborts this
// one (Table 2's "size conflicts with any insert or remove").
func (tm *TransactionalMap[K, V]) Size(tx *stm.Tx) int {
	if tx.IsSnapshot() {
		return tm.snapshotSize(tx)
	}
	return tm.lockedSize(tx, false)
}

// IsEmpty reports whether the map is empty. As the paper's §5.1
// discussion prescribes, it is a primitive operation with its own
// empty-transition lock: it conflicts only with commits that change
// emptiness, not with every size change, so two transactions running
// "if !m.IsEmpty() { m.Put(...) }" on a non-empty map commute. On a
// striped map the empty lock is registered per stripe and a committing
// writer sweeps a stripe's set when that stripe's local emptiness
// flips — conservative (a stripe can flip while the whole map stays
// non-empty) but never missing a global transition, since a global flip
// requires some stripe to flip.
func (tm *TransactionalMap[K, V]) IsEmpty(tx *stm.Tx) bool {
	if tm.isEmptyViaSize || tx.IsSnapshot() {
		return tm.Size(tx) == 0
	}
	return tm.lockedSize(tx, true) == 0
}

// lockedSize returns the size seen by tx, registering in every stripe's
// size lock set — or, for emptyOnly (IsEmpty), its empty-transition set.
//
// The stripes are scanned one at a time — lock the stripe guard,
// register in its lock set, read its committed size, unlock — rather
// than under all guards at once. The sum is still serializable: a
// writer committing between two of the scan's steps sweeps the lock
// sets of every stripe it changes, and this transaction is already
// registered in the stripes it has passed, so any commit that could
// have torn the sum also violates this transaction, which then cannot
// commit (the same opacity-by-violation argument as the paper's
// open-nested reads).
//
// The empty-transition lock guards an IsEmpty answer only while the
// transaction's own buffer leaves the size unchanged: the answer is
// "committed size + delta == 0", which flips exactly when committed
// emptiness flips only for delta == 0. A transaction that already
// removed a committed key answers "empty" from a committed size of 1,
// and a concurrent insert that takes the size from 1 to 2 changes that
// answer without flipping emptiness. Such an IsEmpty therefore takes
// the size lock instead.
func (tm *TransactionalMap[K, V]) lockedSize(tx *stm.Tx, emptyOnly bool) int {
	l := tm.local(tx)
	if emptyOnly && !l.sizeNeutral() {
		emptyOnly = false
	}
	tm.touchAll(tx, l)
	n := 0
	_ = tx.Open(func(o *stm.Tx) error {
		h := o.Handle()
		for si, st := range tm.stripes {
			n += tm.lockedStripeSize(st, si, l, h, emptyOnly)
		}
		if emptyOnly {
			l.emptyLocked = true
		} else {
			l.sizeLocked = true
		}
		n += tm.deltaLocked(l)
		return nil
	})
	tx.Thread().Clock.Tick(tm.opCost)
	return n
}

// lockedStripeSize is one step of lockedSize's scan: under stripe si's
// guard (released by defer, so a panicking comparator cannot leak it),
// register h in the stripe's size or empty lock set, resolve the blind
// writes that land in it, and return its committed size.
func (tm *TransactionalMap[K, V]) lockedStripeSize(st *mapStripe[K, V], si int, l *mapLocal[K, V], h semlock.Owner, emptyOnly bool) int {
	st.guard.Lock()
	defer st.guard.Unlock()
	if emptyOnly {
		st.emptyLockers.Lock(h)
	} else {
		st.sizeLockers.Lock(h)
	}
	tm.resolveBlindStripeLocked(st, si, l, h)
	return st.m.Size()
}

// applyLocked is the commit handler's body: apply the buffer to the
// underlying stripes, violate conflicting semantic lock holders (Table
// 2's "Write Conflict" column), and release this transaction's locks.
// The commit protocol holds every touched stripe's guard; the buffer's
// keys all hash to touched stripes (touch precedes buffering).
func (tm *TransactionalMap[K, V]) applyLocked(l *mapLocal[K, V], h semlock.Owner) {
	var oldSizes [maxStripes]int
	if len(l.writes) > 0 {
		for si, st := range tm.stripes {
			if l.touched&(uint64(1)<<uint(si)) != 0 {
				oldSizes[si] = st.m.Size()
			}
		}
	}
	// mon gates the per-stripe violation counters: one atomic load for
	// the whole sweep, then atomic-only Adds (the window discipline).
	mon := metrics.On()
	for i := range l.writes {
		w := &l.writes[i]
		k := w.key
		st := tm.stripes[tm.StripeOf(k)]
		// Key conflict based on argument: abort every other reader (or
		// locking writer) of this key.
		n := st.key2lockers.ViolateOthers(k, h, tm.reasonKey)
		var membershipChanged bool
		if w.removed {
			_, had := st.m.Remove(k)
			membershipChanged = had
		} else {
			_, had := st.m.Put(k, w.val)
			membershipChanged = !had
		}
		if tm.sorted != nil && membershipChanged {
			// Range conflict: the key entered or left an iterated range.
			// Only k's own stripe's table can hold entries covering k.
			n += tm.sorted.rangeLockers[tm.StripeOf(k)].ViolateCovering(k, h, tm.reasonRange)
		}
		if mon && n > 0 {
			st.violations.Add(uint64(n))
		}
	}
	if len(l.writes) > 0 {
		// Size and empty sweeps are per stripe: a size/empty reader is
		// registered in every stripe's set, so sweeping just the stripes
		// whose local size changed still violates every reader, while
		// disjoint-key writers never sweep (or resize) a shared set.
		for si, st := range tm.stripes {
			if l.touched&(uint64(1)<<uint(si)) == 0 {
				continue
			}
			n := 0
			newSize := st.m.Size()
			if newSize != oldSizes[si] {
				n += st.sizeLockers.ViolateOthers(h, tm.reasonSize)
			}
			if (oldSizes[si] == 0) != (newSize == 0) {
				n += st.emptyLockers.ViolateOthers(h, tm.reasonEmpty)
			}
			if mon && n > 0 {
				st.violations.Add(uint64(n))
			}
		}
	}
	tm.releaseLocked(l, h)
}

// releaseLocked releases every semantic lock held by this transaction
// on this instance and clears its local state for reuse; it is both
// the tail of the commit handler and the whole of the abort handler.
// The protocol holds every touched stripe's guard; all of this
// transaction's locks live on touched stripes (size/empty locks imply
// every stripe was touched).
func (tm *TransactionalMap[K, V]) releaseLocked(l *mapLocal[K, V], h semlock.Owner) {
	for _, k := range l.keyLocks {
		tm.stripes[tm.StripeOf(k)].key2lockers.Unlock(k, h)
	}
	if l.sizeLocked {
		for _, st := range tm.stripes {
			st.sizeLockers.Unlock(h)
		}
	}
	if l.emptyLocked {
		for _, st := range tm.stripes {
			st.emptyLockers.Unlock(h)
		}
	}
	if tm.sorted != nil {
		for _, rl := range l.rangeLocks {
			tm.sorted.rangeLockers[rl.si].Remove(rl.e)
			if len(l.freeRanges) < maxRecycledEntries {
				l.freeRanges = append(l.freeRanges, rl.e)
			}
		}
	}
	l.reset()
}
