package main

import (
	"time"

	"tcc/internal/collections"
)

const (
	ladderKeys   = 4096 // keys of the workload's stream the ladder replays
	ladderPasses = 31   // timed passes per collections op; the median counts
)

// ladder times the bottom rung below the workload on one goroutine:
// the plain internal/collections structures over the workload's own
// key stream. Subtracting these from the core.* values of the same
// workload gives the transactional wrapper's cost.
func (b *bench) ladder() {
	b.ladderValues = collectionsRung(b.wl.keys(b.timed[0][:min(ladderKeys, len(b.timed[0]))]))
}

var sinkInt int

// collectionsRung times the plain structures, ns per operation.
func collectionsRung(keys []int) map[string]float64 {
	hm := collections.NewHashMap[int, int]()
	tm := collections.NewTreeMap[int, int]()
	q := collections.NewLinkedQueue[int]()
	m := map[string]float64{}
	m["collections.hashmap_put_ns"] = perOp(keys, func(k int) { hm.Put(k, k) })
	m["collections.hashmap_get_ns"] = perOp(keys, func(k int) { sinkInt, _ = hm.Get(k) })
	m["collections.treemap_put_ns"] = perOp(keys, func(k int) { tm.Put(k, k) })
	m["collections.treemap_ceiling_ns"] = perOp(keys, func(k int) { sinkInt, _ = tm.CeilingKey(k) })
	m["collections.linkedqueue_put_poll_ns"] = perOp(keys, func(k int) {
		q.Enqueue(k)
		sinkInt, _ = q.Dequeue()
	})
	return m
}

// perOp returns the median over ladderPasses passes of one pass's time
// divided by its key count.
func perOp(keys []int, fn func(k int)) float64 {
	passes := make([]float64, ladderPasses)
	for p := range passes {
		t0 := time.Now()
		for _, k := range keys {
			fn(k)
		}
		passes[p] = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	}
	return median(passes)
}
