package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the layer boundary a span was recorded around.
type spanName uint8

const (
	spanAtomic     spanName = iota // stm.Thread.Atomic, call to return
	spanAtomicRead                 // stm.Thread.AtomicRead, call to return
	spanBody                       // one body attempt inside Atomic/AtomicRead
	spanMapGet                     // core.TransactionalMap.Get inside Atomic
	spanMapGetSnap                 // core.TransactionalMap.Get inside AtomicRead
	spanMapPut
	spanMapRemove
	spanMapSize
	spanSortedPut
	spanSortedRemove
	spanSortedCeiling
	spanSortedScan // SubMap(lo, hi).ForEach, stopped after scanLimit keys
	spanQueuePut
	spanQueuePoll
	spanNewOrder // jbb.Warehouse.Do, one span name per operation
	spanPayment
	spanOrderStatus
	spanDelivery
	spanStockLevel
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"stm.Atomic", "stm.AtomicRead", "stm.body",
	"core.map_get", "core.map_get_snapshot", "core.map_put", "core.map_remove", "core.map_size",
	"core.sortedmap_put", "core.sortedmap_remove", "core.sortedmap_ceiling", "core.sortedmap_scan",
	"core.queue_put", "core.queue_poll",
	"jbb.new_order", "jbb.payment", "jbb.order_status", "jbb.delivery", "jbb.stock_level",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent indexes the same recorder's spans (-1 for a
// root); tx numbers the top-level operation the span belongs to.
type span struct {
	start, end int64
	parent     int32
	tx         uint32
	name       spanName
}

// recorder keeps one worker's spans in memory. A nil *recorder records
// nothing, so the untraced run pays a nil check per boundary.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
	tx    uint32
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity), stack: make([]int32, 0, 8)}
}

// nextTx starts a new top-level operation.
func (r *recorder) nextTx() {
	if r != nil {
		r.tx++
	}
}

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(n spanName) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.epoch)), parent: parent, tx: r.tx, name: n})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i and any span still open inside it: a body attempt
// that the STM unwinds mid-call ends its unfinished core call too.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	for len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.spans[top].end = now
		if top == i {
			return
		}
	}
}

// layerTimes derives per-name samples from recorded spans: the
// duration of every span, and the self time of every span (its
// duration minus the time its direct children cover).
type layerTimes struct {
	dur  [numSpanNames][]int64
	self [numSpanNames][]int64
}

func (lt *layerTimes) add(recs []*recorder) {
	for _, r := range recs {
		children := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := s.end - s.start
			lt.dur[s.name] = append(lt.dur[s.name], d)
			lt.self[s.name] = append(lt.self[s.name], d-children[i])
		}
	}
}

// writeSpans writes the spans as tab-separated rows, one file per run.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\tspan\tparent\ttx\tname\tstart_ns\tend_ns")
	for wi, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", wi, i, s.parent, s.tx, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
