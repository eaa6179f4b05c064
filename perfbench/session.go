package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/stm"
)

// session is the session-store workload of harness.RunSustained: a
// striped TransactionalMap under 70% Get, 15% Put, 10% Remove and 5%
// Size over RunSustained's 128 keys, the first 64 prepopulated. Even
// workers read through AtomicRead snapshots, odd workers on the retry
// path. Unlike RunSustained, which draws keys uniformly, keys follow
// YCSB's scrambled Zipfian distribution (constant 0.99).
type session struct {
	m  *core.TransactionalMap[int, int]
	ws []*sessionWorker
}

const (
	sessionKeys   = 128 // harness.RunSustained's key space
	sessionPrepop = 64  // and its prepopulated keys, 0..63
	// zipfTheta is YCSB's ZIPFIAN_CONSTANT (Cooper et al., SoCC 2010).
	zipfTheta = 0.99
)

// sessionCDF is the cumulative Zipf(zipfTheta) distribution over the
// popularity ranks, and sessionRankKey scatters the ranks over the keys
// by a fixed permutation, as YCSB's scrambled Zipfian scatters them by
// hash, so the hottest keys do not share a stripe. Neither depends on
// the run's seed: every run has the same hot keys.
var sessionCDF, sessionRankKey = func() ([]float64, []int) {
	cdf := make([]float64, sessionKeys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfTheta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf, rand.New(rand.NewSource(sessionKeys)).Perm(sessionKeys)
}()

const (
	opGet uint8 = iota
	opPut
	opRemove
	opSize
)

type sessionWorker struct {
	m        *core.TransactionalMap[int, int]
	th       *stm.Thread
	rec      *recorder
	snapshot bool
	getSpan  spanName
	k, v     int
	// Outcome of the current attempt; kept only once Atomic returns.
	inserted, removed bool
	badRead           int
	// Committed tallies.
	inserts, removes       int64
	get, put, remove, size func(tx *stm.Tx) error
}

func (s *session) gen(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for j := range ops {
		rank := min(sort.SearchFloat64s(sessionCDF, rng.Float64()), sessionKeys-1)
		k := sessionRankKey[rank]
		o := op{key: k, val: valFor(k, j)}
		switch r := rng.Intn(100); {
		case r < 70:
			o.kind = opGet
		case r < 85:
			o.kind = opPut
		case r < 95:
			o.kind = opRemove
		default:
			o.kind = opSize
		}
		ops[j] = o
	}
	return ops
}

func (s *session) setup(seed int64, workers int) {
	s.m = core.NewStripedTransactionalMap(func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, core.DefaultStripes)
	s.m.SetName("sessions")
	th := newThread(seed, workers)
	if err := th.Atomic(func(tx *stm.Tx) error {
		for k := 0; k < sessionPrepop; k++ {
			s.m.Put(tx, k, valFor(k, 0))
		}
		return nil
	}); err != nil {
		panic(err)
	}
	s.ws = make([]*sessionWorker, workers)
	for i := range s.ws {
		w := &sessionWorker{m: s.m, th: newThread(seed, i), snapshot: i%2 == 0, getSpan: spanMapGet}
		if w.snapshot {
			w.getSpan = spanMapGetSnap
		}
		w.get = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			w.badRead = -1
			sp := w.rec.begin(w.getSpan)
			v, ok := w.m.Get(tx, w.k)
			w.rec.end(sp)
			if ok && valKey(v) != w.k {
				w.badRead = valKey(v)
			}
			return nil
		}
		w.put = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			sp := w.rec.begin(spanMapPut)
			_, had := w.m.Put(tx, w.k, w.v)
			w.rec.end(sp)
			w.inserted = !had
			return nil
		}
		w.remove = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			sp := w.rec.begin(spanMapRemove)
			_, had := w.m.Remove(tx, w.k)
			w.rec.end(sp)
			w.removed = had
			return nil
		}
		w.size = func(tx *stm.Tx) error {
			defer w.rec.end(w.rec.begin(spanBody))
			sp := w.rec.begin(spanMapSize)
			w.m.Size(tx)
			w.rec.end(sp)
			return nil
		}
		s.ws[i] = w
	}
}

func (s *session) exec(i int, o op, rec *recorder) error {
	w := s.ws[i]
	w.rec, w.k, w.v = rec, o.key, o.val
	var err error
	switch o.kind {
	case opGet:
		if w.snapshot {
			sp := rec.begin(spanAtomicRead)
			err = w.th.AtomicRead(w.get)
			rec.end(sp)
		} else {
			sp := rec.begin(spanAtomic)
			err = w.th.Atomic(w.get)
			rec.end(sp)
		}
		if err == nil && w.badRead >= 0 {
			err = fmt.Errorf("session: Get(%d) returned the value of key %d", w.k, w.badRead)
		}
	case opPut:
		sp := rec.begin(spanAtomic)
		err = w.th.Atomic(w.put)
		rec.end(sp)
		if err == nil && w.inserted {
			w.inserts++
		}
	case opRemove:
		sp := rec.begin(spanAtomic)
		err = w.th.Atomic(w.remove)
		rec.end(sp)
		if err == nil && w.removed {
			w.removes++
		}
	default:
		sp := rec.begin(spanAtomic)
		err = w.th.Atomic(w.size)
		rec.end(sp)
	}
	return err
}

func (s *session) thread(i int) *stm.Thread { return s.ws[i].th }

// check compares the committed Size with the prepopulated keys plus
// committed inserts minus committed removes.
func (s *session) check() error {
	want := int64(sessionPrepop)
	for _, w := range s.ws {
		want += w.inserts - w.removes
	}
	var got int
	th := newThread(0, len(s.ws)+1)
	if err := th.Atomic(func(tx *stm.Tx) error {
		got = s.m.Size(tx)
		return nil
	}); err != nil {
		return err
	}
	if int64(got) != want {
		return fmt.Errorf("session: committed Size %d, want %d (prepopulated + inserts - removes)", got, want)
	}
	return nil
}

func (s *session) keys(ops []op) []int { return opKeys(ops) }
