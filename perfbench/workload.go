package main

import (
	"math/rand"

	"tcc/internal/stm"
)

// op is one pre-generated operation. Streams are drawn from the run's
// seed before anything is timed, so both sides of a comparison replay
// identical inputs and no RNG cost lands in the measurement.
type op struct {
	kind uint8
	key  int
	val  int
}

// workload is one closed-loop benchmark workload over the repository's
// public API. One exec is one top-level transaction.
type workload interface {
	// gen draws one worker's stream of n operations.
	gen(rng *rand.Rand, n int) []op
	// setup discards the previous structures and builds fresh,
	// prepopulated ones with one executor per worker.
	setup(seed int64, workers int)
	// exec runs o as one top-level transaction on worker i, recording
	// spans into rec (nil when untraced). An error is a failed op.
	exec(i int, o op, rec *recorder) error
	// thread returns worker i's transactional context.
	thread(i int) *stm.Thread
	// check verifies the committed state against the committed tallies.
	check() error
	// keys returns the key stream the single-goroutine ladder replays.
	keys(ops []op) []int
}

// subSeed derives an independent deterministic seed for one stream.
func subSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i)
}

// newThread returns worker i's transactional context on the default
// protocol; TraceID is the worker's lane (and its queue lane).
func newThread(seed int64, i int) *stm.Thread {
	th := stm.NewThread(&stm.RealClock{}, subSeed(seed, 1, i))
	th.TraceID = i
	return th
}

// valFor encodes the key into every stored value, so a read that
// returns another key's value is caught.
func valFor(k, seq int) int { return k<<20 | seq&(1<<20-1) }

func valKey(v int) int { return v >> 20 }

// opKeys returns the keys of a stream, in order.
func opKeys(ops []op) []int {
	ks := make([]int, len(ops))
	for j, o := range ops {
		ks[j] = o.key
	}
	return ks
}
