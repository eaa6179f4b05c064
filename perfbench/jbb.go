package main

import (
	"math/rand"

	"tcc/internal/harness"
	"tcc/internal/jbb"
	"tcc/internal/stm"
)

// jbbWorkload is the paper's SPECjbb application in its high-contention
// variant: one Atomos warehouse in the Transactional configuration with
// a single district, driven by the DrawOp 10:10:1:1:1 mix. Operation
// kinds are drawn up front; Warehouse.Do draws each operation's
// customers and items from the worker's seeded RNG.
type jbbWorkload struct {
	wh     jbb.Warehouse
	ws     []*harness.Worker
	counts []jbb.Counts
}

func (j *jbbWorkload) gen(rng *rand.Rand, n int) []op {
	w := &harness.Worker{RNG: rng}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: uint8(jbb.DrawOp(w))}
	}
	return ops
}

func (j *jbbWorkload) setup(seed int64, workers int) {
	j.wh = jbb.NewAtomosWarehouse(jbb.ConfigAtomosTransactional, jbb.DefaultParams())
	j.ws = make([]*harness.Worker, workers)
	j.counts = make([]jbb.Counts, workers)
	for i := range j.ws {
		j.ws[i] = &harness.Worker{
			Index:  i,
			Thread: newThread(seed, i),
			RNG:    rand.New(rand.NewSource(subSeed(seed, 2, i))),
		}
	}
}

func (j *jbbWorkload) exec(i int, o op, rec *recorder) error {
	sp := rec.begin(spanNewOrder + spanName(o.kind))
	c := j.wh.Do(j.ws[i], jbb.Op(o.kind))
	rec.end(sp)
	j.counts[i].Add(c)
	return nil
}

func (j *jbbWorkload) thread(i int) *stm.Thread { return j.ws[i].Thread }

// check runs Warehouse.Check on the tallied Counts of every worker.
func (j *jbbWorkload) check() error {
	var total jbb.Counts
	for _, c := range j.counts {
		total.Add(c)
	}
	return j.wh.Check(total)
}

// keys returns ascending order ids from the end of the prepopulated
// orders: the insert pattern of the warehouse's order tables.
func (j *jbbWorkload) keys(ops []op) []int {
	first := jbb.DefaultParams().InitialOrders
	ks := make([]int, len(ops))
	for i := range ks {
		ks[i] = first + i
	}
	return ks
}
