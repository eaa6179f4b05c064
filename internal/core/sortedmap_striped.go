package core

// Range-striped TransactionalSortedMap and the stripe walk (DESIGN.md
// §4.5). Hash-striping keys would force every iterator and navigation
// query to visit every stripe, so the sorted map partitions the *key
// space* instead: contiguous intervals, split by an immutable boundary
// vector, each interval fusing its own guard, sorted shard, key-lock
// table and range-lock table. Point operations (Get/Put/Remove) land on
// one interval stripe exactly like the hash-striped map; order-dependent
// operations walk stripes one at a time, in interval order, laying a
// chain of per-stripe range locks that together cover exactly the gap
// the operation observed. The walk is the sorted map's only protocol: a
// single-stripe map (NewTransactionalSortedMap) is its one-interval
// case, where every chain is one entry.
//
//   - CeilingKey(k) = r: a [k, r] entry when both lie in one stripe;
//     otherwise [k, edge) in k's stripe, whole-interval entries in the
//     empty stripes crossed, and [edge, r] in r's stripe.
//   - FirstKey/LastKey: a walk from the bottom (top) of the key space —
//     Table 5's first/last locks become "the ranges below (above) the
//     answer, and the answer itself, hold no other key", which any
//     endpoint-changing commit necessarily violates via the ordinary
//     per-stripe range sweep.
//   - Iterators keep one widening entry per stripe entered, so a scan
//     confined to one interval holds exactly one stripe's locks.
//
// Guards are only ever taken one at a time on the retry path (each
// stripe probe is its own open-nested critical section), and in
// ascending id order by lockStripeSpan on the snapshot path, so every
// hold is compatible with the commit protocol's sorted footprint
// acquisition. Each stripe joins the transaction's guard footprint
// (touch) before its probe, exactly like the hash-striped map.

import (
	"slices"
	"sort"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// NewRangeStripedTransactionalSortedMap creates a sorted map
// partitioned into contiguous key intervals: stripe 0 owns keys below
// boundaries[0], stripe i owns [boundaries[i-1], boundaries[i]), the
// last stripe owns the tail. newShard is called once per stripe, so
// the shards start empty and the wrapper owns them outright. The
// boundary vector is sorted and deduplicated, then truncated so the
// stripe count is a power of two in [1, 64] (the map's clamp); use
// SampleRangeBoundaries to derive boundaries from expected keys.
func NewRangeStripedTransactionalSortedMap[K comparable, V any](newShard func() collections.SortedMap[K, V], boundaries []K) *TransactionalSortedMap[K, V] {
	first := newShard()
	cmp := first.Compare
	bs := append([]K(nil), boundaries...)
	sort.Slice(bs, func(i, j int) bool { return cmp(bs[i], bs[j]) < 0 })
	bs = dedupeSorted(bs, cmp)
	// Largest power-of-two stripe count expressible with these
	// boundaries (n stripes need n-1 of them), clamped like the map.
	n := 1
	for n*2 <= len(bs)+1 && n*2 <= maxStripes {
		n *= 2
	}
	bs = bs[:n-1]

	sms := make([]collections.SortedMap[K, V], n)
	sms[0] = first
	for i := 1; i < n; i++ {
		sms[i] = newShard()
	}
	return newSortedMap(sms, bs)
}

// dedupeSorted removes adjacent duplicates from a cmp-sorted slice.
func dedupeSorted[K comparable](s []K, cmp func(a, b K) int) []K {
	out := s[:0]
	for i, k := range s {
		if i == 0 || cmp(k, out[len(out)-1]) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// SampleRangeBoundaries derives an interval-boundary vector for
// NewRangeStripedTransactionalSortedMap from a sample of expected keys:
// the (i/n)-quantiles of the sorted, deduplicated sample, for the
// normalized (power-of-two, clamped) stripe count n. A sample smaller
// than the stripe count yields fewer boundaries and hence fewer
// stripes — the constructor clamps again.
func SampleRangeBoundaries[K comparable](sample []K, cmp func(a, b K) int, stripes int) []K {
	n := normalizeStripes(stripes)
	ks := append([]K(nil), sample...)
	sort.Slice(ks, func(i, j int) bool { return cmp(ks[i], ks[j]) < 0 })
	ks = dedupeSorted(ks, cmp)
	var out []K
	for i := 1; i < n; i++ {
		idx := i * len(ks) / n
		if idx > 0 && idx < len(ks) {
			out = append(out, ks[idx])
		}
	}
	return dedupeSorted(out, cmp)
}

// bufferCeilingInStripe returns the smallest buffered non-removed key
// of stripe si that is >= *k (> when strict); k == nil starts from the
// stripe's lower edge. Caller holds stripe si's guard and guarantees
// *k lies in stripe si.
func (t *TransactionalSortedMap[K, V]) bufferCeilingInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	keys := l.sortedKeys
	var i int
	switch {
	case k != nil:
		var exact bool
		i, exact = slices.BinarySearchFunc(keys, *k, t.sorted.cmp)
		if exact && strict {
			i++
		}
	case si > 0:
		i, _ = slices.BinarySearchFunc(keys, t.sorted.boundaries[si-1], t.sorted.cmp)
	}
	for ; i < len(keys) && t.sorted.stripeFor(keys[i]) == si; i++ {
		if !l.buffered(keys[i]).removed {
			return keys[i], true
		}
	}
	var zero K
	return zero, false
}

// bufferFloorInStripe is the descending mirror of bufferCeilingInStripe.
func (t *TransactionalSortedMap[K, V]) bufferFloorInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	keys := l.sortedKeys
	i := len(keys) - 1
	switch {
	case k != nil:
		var exact bool
		i, exact = slices.BinarySearchFunc(keys, *k, t.sorted.cmp)
		if !exact || strict {
			i--
		}
	case si < len(t.stripes)-1:
		// Keys below boundaries[si] belong to stripes <= si.
		i, _ = slices.BinarySearchFunc(keys, t.sorted.boundaries[si], t.sorted.cmp)
		i--
	}
	for ; i >= 0 && t.sorted.stripeFor(keys[i]) == si; i-- {
		if !l.buffered(keys[i]).removed {
			return keys[i], true
		}
	}
	var zero K
	return zero, false
}

// mergedCeilingInStripe returns the smallest live key of stripe si
// that is >= *k (> when strict; k == nil means from the stripe's lower
// edge), merging the committed shard (skipping buffered removals) with
// buffered additions. Caller holds stripe si's guard.
func (t *TransactionalSortedMap[K, V]) mergedCeilingInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	sm := t.sorted.sms[si]
	var c K
	var ok bool
	switch {
	case k == nil:
		c, ok = sm.FirstKey()
	case strict:
		c, ok = sm.HigherKey(*k)
	default:
		c, ok = sm.CeilingKey(*k)
	}
	for ok {
		if w := l.buffered(c); w == nil || !w.removed {
			break
		}
		c, ok = sm.HigherKey(c)
	}
	if bk, bok := t.bufferCeilingInStripe(l, si, k, strict); bok && (!ok || t.sorted.cmp(bk, c) < 0) {
		return bk, true
	}
	return c, ok
}

// mergedFloorInStripe is the descending mirror of mergedCeilingInStripe.
func (t *TransactionalSortedMap[K, V]) mergedFloorInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	sm := t.sorted.sms[si]
	var c K
	var ok bool
	switch {
	case k == nil:
		c, ok = sm.LastKey()
	case strict:
		c, ok = sm.LowerKey(*k)
	default:
		c, ok = sm.FloorKey(*k)
	}
	for ok {
		if w := l.buffered(c); w == nil || !w.removed {
			break
		}
		c, ok = sm.LowerKey(c)
	}
	if bk, bok := t.bufferFloorInStripe(l, si, k, strict); bok && (!ok || t.sorted.cmp(bk, c) > 0) {
		return bk, true
	}
	return c, ok
}

// walkUp finds the smallest live key >= *from (> when strict), or the
// map's first key when from == nil, walking interval stripes upward.
// Each stripe probe is its own open-nested critical section under that
// stripe's guard alone (touched first, so the commit footprint is in
// place), and leaves a range-lock entry in that stripe's table: the
// probed gap plus the result in the stripe that answers, the whole
// scanned interval in stripes observed empty. Together the chain locks
// exactly the observed gap plus the result.
//
// A navigation query (from != nil) also key-locks its result. An
// endpoint walk (from == nil) does not: its closed entry (-inf, r]
// already catches r leaving, and FirstKey returns no value, so a
// commit that only updates r's value commutes with it — exactly Table
// 5's first lock.
func (t *TransactionalSortedMap[K, V]) walkUp(tx *stm.Tx, from *K, strict bool) (K, bool) {
	l := t.local(tx)
	start := 0
	if from != nil {
		start = t.sorted.stripeFor(*from)
	}
	var res K
	var found bool
	for si := start; si < len(t.stripes) && !found; si++ {
		si := si
		st := t.touch(tx, l, si)
		_ = tx.Open(func(o *stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			h := o.Handle()
			e := l.rangeEntry(h)
			if si == start && from != nil {
				e.SetLo(*from, strict)
			}
			if r, ok := t.mergedCeilingInStripe(l, si, e.Lo, strict); ok {
				e.SetHi(r, false)
				if from != nil {
					t.lockKeyLocked(l, h, r)
				}
				res, found = r, true
			}
			// Not found: e.Hi stays nil — the stripe's whole remaining
			// interval was observed empty.
			t.addRangeLock(l, si, e)
			return nil
		})
		tx.Thread().Clock.Tick(t.opCost)
	}
	return res, found
}

// walkDown is the descending mirror of walkUp (FloorKey/LowerKey/
// LastKey): stripes are probed downward from *from's interval (or the
// top), one guard at a time, and only a navigation query key-locks its
// result.
func (t *TransactionalSortedMap[K, V]) walkDown(tx *stm.Tx, from *K, strict bool) (K, bool) {
	l := t.local(tx)
	start := len(t.stripes) - 1
	if from != nil {
		start = t.sorted.stripeFor(*from)
	}
	var res K
	var found bool
	for si := start; si >= 0 && !found; si-- {
		si := si
		st := t.touch(tx, l, si)
		_ = tx.Open(func(o *stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			h := o.Handle()
			e := l.rangeEntry(h)
			if si == start && from != nil {
				e.SetHi(*from, strict)
			}
			if r, ok := t.mergedFloorInStripe(l, si, e.Hi, strict); ok {
				e.SetLo(r, false)
				if from != nil {
					t.lockKeyLocked(l, h, r)
				}
				res, found = r, true
			}
			t.addRangeLock(l, si, e)
			return nil
		})
		tx.Thread().Clock.Tick(t.opCost)
	}
	return res, found
}

// advance finds the next live merged key after it.last (or from it.lo),
// locking and recording it. The scan keeps one widening range-lock
// entry per stripe entered (it.slocks), positioned by it.si, and
// probes the current stripe under its guard alone. Exhausting a stripe
// pins its entry to the view bound (when the bound lies in that
// stripe) or extends it to the stripe's upper edge and moves on.
func (it *SortedIterator[K, V]) advance() (K, V, bool) {
	t, l := it.t, it.l
	n := len(t.stripes)
	var outK K
	var outV V
	found := false
	for !found && it.si < n {
		si := it.si
		st := t.touch(it.tx, l, si)
		_ = it.tx.Open(func(o *stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			h := o.Handle()
			e := it.slocks[si]
			if e == nil {
				e = l.rangeEntry(h)
				if it.lo != nil && t.sorted.stripeFor(*it.lo) == si {
					e.SetLo(*it.lo, false)
				}
				it.slocks[si] = e
				t.addRangeLock(l, si, e)
			}
			var from *K
			strict := false
			if it.hasLast && t.sorted.stripeFor(it.last) == si {
				from, strict = &it.last, true
			} else if e.Lo != nil {
				from = e.Lo
			}
			res, ok := t.mergedCeilingInStripe(l, si, from, strict)
			if ok && it.hi != nil && t.sorted.cmp(res, *it.hi) >= 0 {
				ok = false
			}
			if ok {
				t.lockKeyLocked(l, h, res)
				e.SetHi(res, false)
				it.last, it.hasLast = res, true
				if w := l.buffered(res); w != nil {
					outK, outV, found = res, w.val, true
				} else {
					v, _ := t.sorted.sms[si].Get(res)
					outK, outV, found = res, v, true
				}
				return nil
			}
			// Stripe exhausted within the view.
			if it.hi != nil && t.sorted.stripeFor(*it.hi) == si {
				// The view bound lies in this stripe: pin the entry to
				// it ([.., hi) observed empty) and stop the scan.
				e.SetHi(*it.hi, true)
				it.si = n
			} else {
				// Extend to the stripe's upper edge and move on.
				e.Hi = nil
				e.HiExcl = false
				it.si = si + 1
			}
			return nil
		})
		it.tx.Thread().Clock.Tick(t.opCost)
	}
	return outK, outV, found
}

// snapshotFirstKey answers FirstKey for a snapshot transaction: the
// committed minimum, read with every stripe guard held so a
// multi-stripe commit is seen entirely or not at all. Like snapshotGet
// it answers per operation (DESIGN.md §4.4) on every layout.
func (t *TransactionalSortedMap[K, V]) snapshotFirstKey(tx *stm.Tx) (K, bool) {
	res, ok := t.committedFirstKey()
	tx.Thread().Clock.Tick(t.opCost)
	return res, ok
}

// committedFirstKey reads the committed minimum under every guard,
// released by defer (see committedGet).
func (t *TransactionalSortedMap[K, V]) committedFirstKey() (K, bool) {
	t.lockGuards()
	defer t.unlockGuards()
	for _, sm := range t.sorted.sms {
		if k, ok := sm.FirstKey(); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}

// snapshotLastKey is the descending mirror of snapshotFirstKey.
func (t *TransactionalSortedMap[K, V]) snapshotLastKey(tx *stm.Tx) (K, bool) {
	res, ok := t.committedLastKey()
	tx.Thread().Clock.Tick(t.opCost)
	return res, ok
}

// committedLastKey is the descending mirror of committedFirstKey.
func (t *TransactionalSortedMap[K, V]) committedLastKey() (K, bool) {
	t.lockGuards()
	defer t.unlockGuards()
	for si := len(t.sorted.sms) - 1; si >= 0; si-- {
		if k, ok := t.sorted.sms[si].LastKey(); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}

// snapshotCeiling answers CeilingKey/HigherKey for a snapshot
// transaction: the committed answer, read with the guards of every
// stripe the query could span held at once (ascending, so the hold is
// compatible with the commit protocol's sorted footprint acquisition).
func (t *TransactionalSortedMap[K, V]) snapshotCeiling(tx *stm.Tx, k K, strict bool) (K, bool) {
	res, ok := t.committedCeiling(k, strict)
	tx.Thread().Clock.Tick(t.opCost)
	return res, ok
}

// committedCeiling reads the committed ceiling (higher, when strict)
// of k under the guards of k's stripe and every stripe above it,
// released by defer (see committedGet).
func (t *TransactionalSortedMap[K, V]) committedCeiling(k K, strict bool) (K, bool) {
	lo := t.sorted.stripeFor(k)
	hi := len(t.stripes) - 1
	t.lockStripeSpan(lo, hi)
	defer t.unlockStripeSpan(lo, hi)
	for si := lo; si <= hi; si++ {
		sm := t.sorted.sms[si]
		var c K
		var ok bool
		switch {
		case si > lo:
			c, ok = sm.FirstKey()
		case strict:
			c, ok = sm.HigherKey(k)
		default:
			c, ok = sm.CeilingKey(k)
		}
		if ok {
			return c, true
		}
	}
	var zero K
	return zero, false
}

// snapshotFloor is the descending mirror of snapshotCeiling.
func (t *TransactionalSortedMap[K, V]) snapshotFloor(tx *stm.Tx, k K, strict bool) (K, bool) {
	res, ok := t.committedFloor(k, strict)
	tx.Thread().Clock.Tick(t.opCost)
	return res, ok
}

// committedFloor is the descending mirror of committedCeiling.
func (t *TransactionalSortedMap[K, V]) committedFloor(k K, strict bool) (K, bool) {
	hi := t.sorted.stripeFor(k)
	t.lockStripeSpan(0, hi)
	defer t.unlockStripeSpan(0, hi)
	for si := hi; si >= 0; si-- {
		sm := t.sorted.sms[si]
		var c K
		var ok bool
		switch {
		case si < hi:
			c, ok = sm.LastKey()
		case strict:
			c, ok = sm.LowerKey(k)
		default:
			c, ok = sm.FloorKey(k)
		}
		if ok {
			return c, true
		}
	}
	var zero K
	return zero, false
}
