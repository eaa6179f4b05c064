// Command perfbench is the repository's benchmark. It runs one
// closed-loop workload (session, jbb or ordered-feed) through the
// public API of internal/core, internal/jbb and internal/stm, checks
// the committed state against the committed operations, and prints
// its metrics. The last line of standard output is one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md for the metric definitions.
//
//	go run . --workload session --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tcc/internal/obs"
	obsmetrics "tcc/internal/obs/metrics"
	"tcc/internal/stm"
)

// spec sizes one workload. Every worker runs a fixed number of
// operations per round, so table sizes and heap are the same however
// fast the code runs; rounds repeat until the run's time is spent.
type spec struct {
	new       func() workload
	warmOps   int // untimed operations per worker after setup
	timedOps  int // timed operations per worker
	setupReps int // setups per round; setup_s is their median
}

var specs = map[string]spec{
	"session":      {new: func() workload { return &session{} }, warmOps: 20_000, timedOps: 150_000, setupReps: 100},
	"jbb":          {new: func() workload { return &jbbWorkload{} }, warmOps: 10_000, timedOps: 100_000, setupReps: 100},
	"ordered-feed": {new: func() workload { return &feed{} }, warmOps: 10_000, timedOps: 60_000, setupReps: 20},
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// its order; the benchmark's test keeps the two in step.
var endToEnd = []metricDef{
	{"cpu_us_per_tx", "us"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"allocs_per_tx", "count"},
	{"alloc_bytes_per_tx", "B"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"throughput_tx_s", "tx/s"},
	{"stm.tx_self_ns", "ns"},
	{"stm.snapshot_tx_ns", "ns"},
	{"stm.attempts_per_tx", "count"},
	{"stm.useful_frac", "ratio"},
	{"stm.aborts_per_ktx", "1/ktx"},
	{"stm.violations_per_ktx", "1/ktx"},
	{"stm.open_commits_per_tx", "count"},
	{"stm.snapshot_fallback_frac", "ratio"},
	{"stm.guard_waits_per_ktx", "1/ktx"},
	{"stm.guard_wait_us_per_ktx", "us/ktx"},
	{"semlock.key_conflicts_per_ktx", "1/ktx"},
	{"semlock.size_conflicts_per_ktx", "1/ktx"},
	{"semlock.range_conflicts_per_ktx", "1/ktx"},
	{"semlock.endpoint_conflicts_per_ktx", "1/ktx"},
	{"semlock.empty_conflicts_per_ktx", "1/ktx"},
	{"semlock.unattributed_per_ktx", "1/ktx"},
	{"core.map_get_ns", "ns"},
	{"core.map_get_snapshot_ns", "ns"},
	{"core.map_put_ns", "ns"},
	{"core.map_remove_ns", "ns"},
	{"core.map_size_ns", "ns"},
	{"core.sortedmap_put_ns", "ns"},
	{"core.sortedmap_remove_ns", "ns"},
	{"core.sortedmap_ceiling_ns", "ns"},
	{"core.sortedmap_scan_ns", "ns"},
	{"core.sortedmap_scan_p99_ns", "ns"},
	{"core.queue_put_ns", "ns"},
	{"core.queue_poll_ns", "ns"},
	{"jbb.new_order_p50_us", "us"},
	{"jbb.new_order_p99_us", "us"},
	{"jbb.payment_p50_us", "us"},
	{"jbb.payment_p99_us", "us"},
	{"jbb.order_status_p50_us", "us"},
	{"jbb.order_status_p99_us", "us"},
	{"jbb.delivery_p50_us", "us"},
	{"jbb.delivery_p99_us", "us"},
	{"jbb.stock_level_p50_us", "us"},
	{"jbb.stock_level_p99_us", "us"},
	{"collections.hashmap_get_ns", "ns"},
	{"collections.hashmap_put_ns", "ns"},
	{"collections.treemap_put_ns", "ns"},
	{"collections.treemap_ceiling_ns", "ns"},
	{"collections.linkedqueue_put_poll_ns", "ns"},
	{"runtime.gc_cycles_per_ktx", "1/ktx"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"obs.trace_overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: session, jbb or ordered-feed")
	seed := fs.Int64("seed", 1, "seed the operation streams are drawn from")
	seconds := fs.Int("seconds", 10, "how long the rounds run, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload session|jbb|ordered-feed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(out, "workload=%s seed=%d workers=%d protocol=tl2 warm_ops=%d timed_ops=%d per worker per round\n",
		*name, *seed, workers, sp.warmOps, sp.timedOps)

	b := newBench(sp, *seed, workers, *trace == 1)
	b.run(time.Duration(*seconds) * time.Second)

	if b.traced {
		b.ladder()
		if len(b.lastRecs) > 0 {
			if err := writeSpans(filepath.Join(".bench_build", "spans-"+*name+".tsv"), b.lastRecs); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			}
		}
	}

	for _, rs := range []struct {
		kind   string
		rounds []map[string]float64
	}{{"untraced", b.plain}, {"traced", b.withTrace}} {
		for i, m := range rs.rounds {
			fmt.Fprintf(out, "round %s %d: throughput_tx_s=%.0f cpu_us_per_tx=%.3f latency_p50_us=%.3f latency_p99_us=%.3f setup_s=%.6f host_steal_frac=%.3f\n",
				rs.kind, i, m["throughput_tx_s"], m["cpu_us_per_tx"], m["latency_p50_us"], m["latency_p99_us"], m["setup_s"], m["host_steal_frac"])
		}
	}
	if b.profile != nil {
		fmt.Fprintf(out, "conflict profile of the last traced round:\n%s", b.profile.Report().Format(5))
	}
	correct := b.failed == 0 && b.checkErr == nil
	fmt.Fprintf(out, "rounds untraced=%d traced=%d attempted=%d failed=%d ops_failed_frac=%g ratio\n",
		len(b.plain), len(b.withTrace), b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	for _, err := range []error{b.firstFail, b.checkErr} {
		if err != nil {
			fmt.Fprintf(out, "check FAILED: %v\n", err)
		}
	}
	if correct {
		fmt.Fprintln(out, "check ok: committed state matches the committed operations in every round")
	}

	defs, values := endToEnd, b.endToEnd()
	if b.traced {
		defs, values = perLayer, b.perLayer()
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, measured := values[d.name]
		ms[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(out, "%-40s %14.4f %s", d.name, v, d.unit)
		if d.name == "latency_p99_us" {
			fmt.Fprintf(out, "  (n=%d per round, median of %d rounds)", workers*sp.timedOps, len(b.plain))
		}
		if !measured {
			fmt.Fprint(out, "  (this workload makes no such call)")
		}
		fmt.Fprintln(out)
	}
	if !b.traced {
		fmt.Fprintf(out, "%-40s %14.4f %s  (unbounded: host steal moves it between runs, see README)\n",
			"throughput_tx_s", values["throughput_tx_s"], "tx/s")
	}
	res, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, b.attempted, b.failed, ms})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(res))
	if !correct {
		return 1
	}
	return 0
}

// cpuModel returns the host's CPU model string, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// bench runs the rounds of one workload and keeps each round's metrics.
type bench struct {
	sp      spec
	seed    int64
	workers int
	traced  bool
	wl      workload
	warm    [][]op
	timed   [][]op
	lat     [][]int64
	recs    []*recorder

	plain, withTrace []map[string]float64 // per-round metrics
	ladderValues     map[string]float64   // collections.* values from the ladder
	lastRecs         []*recorder          // spans of the last traced round
	profile          *obs.Profile         // conflict profile of the last traced round
	attempted        int
	failed           int
	firstFail        error
	checkErr         error
}

func newBench(sp spec, seed int64, workers int, traced bool) *bench {
	b := &bench{sp: sp, seed: seed, workers: workers, traced: traced, wl: sp.new()}
	for i := 0; i < workers; i++ {
		rng := rand.New(rand.NewSource(subSeed(seed, 0, i)))
		b.warm = append(b.warm, b.wl.gen(rng, sp.warmOps))
		b.timed = append(b.timed, b.wl.gen(rng, sp.timedOps))
		b.lat = append(b.lat, make([]int64, sp.timedOps))
		if traced {
			b.recs = append(b.recs, newRecorder(time.Now(), 4*sp.timedOps))
		}
	}
	return b
}

// run repeats rounds until the next would overrun budget. The traced
// run alternates untraced and traced rounds, so the tracing overhead
// compares rounds made under the same conditions.
func (b *bench) run(budget time.Duration) {
	minRounds := 3
	if b.traced {
		minRounds = 4
	}
	start := time.Now()
	var last time.Duration
	for n := 0; n < minRounds || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		traced := b.traced && n%2 == 1
		m := b.round(traced)
		if traced {
			b.withTrace = append(b.withTrace, m)
		} else {
			b.plain = append(b.plain, m)
		}
		last = time.Since(t0)
	}
}

// round sets up fresh structures, warms them up, times one pass of every
// worker's stream and checks the committed state.
func (b *bench) round(traced bool) map[string]float64 {
	m := map[string]float64{}
	// heap_live_mb is what this round's structures hold: the live heap
	// after the timed pass over the live heap before setup, once the
	// last round's structures are dropped.
	b.wl = b.sp.new()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	setups := make([]float64, b.sp.setupReps)
	for i := range setups {
		t0 := time.Now()
		b.wl.setup(b.seed, b.workers)
		setups[i] = time.Since(t0).Seconds()
	}
	m["setup_s"] = median(setups)

	b.phase(b.warm, nil, nil)
	for i := 0; i < b.workers; i++ {
		b.wl.thread(i).Stats = stm.Stats{}
	}
	var recs []*recorder
	if traced {
		epoch := time.Now()
		for _, r := range b.recs {
			r.epoch, r.spans, r.stack, r.tx = epoch, r.spans[:0], r.stack[:0], 0
		}
		recs = b.recs
	}
	guardWaits := obsmetrics.Default.Counter(obsmetrics.StmGuardWaits, "")
	guardWaitNs := obsmetrics.Default.Counter(obsmetrics.StmGuardWaitNs, "")

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, steal0 := gcCPUSeconds(), stealSeconds()
	gw0, gwNs0 := guardWaits.Total(), guardWaitNs.Total()
	if traced {
		b.profile = obs.NewProfile()
		obs.SetTracer(b.profile)
		obsmetrics.SetEnabled(true)
	}
	cpu0 := cpuSeconds()
	failed, elapsed := b.phase(b.timed, b.lat, recs)
	cpu1 := cpuSeconds()
	obs.SetTracer(nil)
	obsmetrics.SetEnabled(false)
	runtime.ReadMemStats(&m1)
	gc1, steal1 := gcCPUSeconds(), stealSeconds()
	runtime.GC()
	runtime.ReadMemStats(&m2)

	committed := float64(b.workers*b.sp.timedOps - failed)
	m["throughput_tx_s"] = committed / elapsed.Seconds()
	m["cpu_us_per_tx"] = ratio(1e6*(cpu1-cpu0), committed)
	var lat []int64
	for _, l := range b.lat {
		lat = append(lat, l...)
	}
	m["latency_p50_us"] = quantile(lat, 0.50) / 1e3
	m["latency_p99_us"] = quantile(lat, 0.99) / 1e3
	m["allocs_per_tx"] = ratio(float64(m1.Mallocs-m0.Mallocs), committed)
	m["alloc_bytes_per_tx"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), committed)
	m["heap_live_mb"] = (float64(m2.HeapAlloc) - float64(base.HeapAlloc)) / 1e6
	m["runtime.gc_cycles_per_ktx"] = ratio(1000*float64(m1.NumGC-m0.NumGC), committed)
	m["runtime.gc_cpu_frac"] = ratio(gc1-gc0, elapsed.Seconds()*float64(runtime.GOMAXPROCS(0)))
	m["runtime.gc_pause_p99_us"] = gcPauseP99(&m0, &m1) / 1e3
	m["host_steal_frac"] = ratio(steal1-steal0, elapsed.Seconds()*float64(runtime.NumCPU()))

	if traced {
		var st stm.Stats
		for i := 0; i < b.workers; i++ {
			st.Add(b.wl.thread(i).Stats)
		}
		stmMetrics(m, st)
		m["stm.guard_waits_per_ktx"] = ratio(1000*float64(guardWaits.Total()-gw0), committed)
		m["stm.guard_wait_us_per_ktx"] = ratio(float64(guardWaitNs.Total()-gwNs0), committed)
		var lt layerTimes
		lt.add(recs)
		for k, v := range callMetrics(&lt) {
			m[k] = v
		}
		b.lastRecs = recs
	}
	if err := b.wl.check(); err != nil && b.checkErr == nil {
		b.checkErr = err
	}
	return m
}

// phase runs every worker's stream concurrently, each worker starting
// its next operation only when the previous one returned. lat, when
// non-nil, receives each operation's latency in nanoseconds.
func (b *bench) phase(streams [][]op, lat [][]int64, recs []*recorder) (failed int, elapsed time.Duration) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	fails := make([]int, len(streams))
	errs := make([]error, len(streams))
	for i := range streams {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j, o := range streams[i] {
				t0 := time.Now()
				rec.nextTx()
				if err := safeExec(b.wl, i, o, rec); err != nil {
					fails[i]++
					if errs[i] == nil {
						errs[i] = err
					}
				}
				if lat != nil {
					lat[i][j] = int64(time.Since(t0))
				}
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed = time.Since(t0)
	for i := range streams {
		failed += fails[i]
		b.attempted += len(streams[i])
		if errs[i] != nil && b.firstFail == nil {
			b.firstFail = errs[i]
		}
	}
	b.failed += failed
	return failed, elapsed
}

// safeExec runs one operation, reporting a panic as a failed operation.
func safeExec(wl workload, i int, o op, rec *recorder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return wl.exec(i, o, rec)
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's CPUs, summed over CPUs, from the "cpu" line of /proc/stat
// (in USER_HZ ticks of 10ms); 0 where it cannot be read.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// gcCPUSeconds returns the CPU time the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcPauseP99 returns the p99 stop-the-world pause, in ns, of the
// collections that ran between two MemStats reads.
func gcPauseP99(before, after *runtime.MemStats) float64 {
	var pauses []int64
	for g := after.NumGC; g > before.NumGC && len(pauses) < len(after.PauseNs); g-- {
		pauses = append(pauses, int64(after.PauseNs[(g+255)%256]))
	}
	return quantile(pauses, 0.99)
}

// stmMetrics derives the stm.* and semlock.* metrics from the workers'
// aggregated Thread.Stats.
func stmMetrics(m map[string]float64, st stm.Stats) {
	commits := float64(st.Commits)
	attempts := float64(st.Commits + st.Aborts + st.Violations + st.UserAborts)
	m["stm.attempts_per_tx"] = ratio(attempts, commits)
	m["stm.useful_frac"] = ratio(commits, attempts)
	m["stm.aborts_per_ktx"] = ratio(1000*float64(st.Aborts), commits)
	m["stm.violations_per_ktx"] = ratio(1000*float64(st.Violations), commits)
	m["stm.open_commits_per_tx"] = ratio(float64(st.OpenCommits), commits)
	m["stm.snapshot_fallback_frac"] = ratio(float64(st.SnapshotFallbacks), float64(st.SnapshotCommits+st.SnapshotFallbacks))
	kinds := map[string]float64{}
	for reason, n := range st.ViolationsByReason {
		kinds[lockKind(reason)] += float64(n)
	}
	for _, k := range []string{"key", "size", "range", "endpoint", "empty"} {
		m["semlock."+k+"_conflicts_per_ktx"] = ratio(1000*kinds[k], commits)
	}
	m["semlock.unattributed_per_ktx"] = ratio(1000*kinds["unattributed"], commits)
}

// lockKind maps a violation reason of internal/core's semantic locks
// to the lock table that raised it.
func lockKind(reason string) string {
	for _, k := range []struct{ suffix, kind string }{
		{": key conflict", "key"},
		{": size conflict", "size"},
		{": range conflict", "range"},
		{": first-key conflict", "endpoint"},
		{": last-key conflict", "endpoint"},
		{": emptiness conflict", "empty"},
		{": no longer empty", "empty"},
		{": refilled on abort", "empty"},
	} {
		if strings.Contains(reason, k.suffix) {
			return k.kind
		}
	}
	return "unattributed"
}

// callMetrics derives per-call metrics from span samples; a name with
// no samples is left out.
func callMetrics(lt *layerTimes) map[string]float64 {
	m := map[string]float64{}
	set := func(name string, xs []int64, q, scale float64) {
		if len(xs) > 0 {
			m[name] = quantile(xs, q) / scale
		}
	}
	set("stm.tx_self_ns", lt.self[spanAtomic], 0.5, 1)
	set("stm.snapshot_tx_ns", lt.self[spanAtomicRead], 0.5, 1)
	for n := spanMapGet; n <= spanQueuePoll; n++ {
		set(spanNames[n]+"_ns", lt.dur[n], 0.5, 1)
	}
	set("core.sortedmap_scan_p99_ns", lt.dur[spanSortedScan], 0.99, 1)
	for n := spanNewOrder; n <= spanStockLevel; n++ {
		set(spanNames[n]+"_p50_us", lt.dur[n], 0.5, 1e3)
		set(spanNames[n]+"_p99_us", lt.dur[n], 0.99, 1e3)
	}
	return m
}

// endToEnd reports the median over untraced rounds.
func (b *bench) endToEnd() map[string]float64 {
	return medians(b.plain)
}

// perLayer reports the median over traced rounds, the throughput and
// runtime.* metrics of the untraced rounds they ran beside, and the
// ladder's collections.* values. A call the workload does not make has
// no value and is reported as 0.
func (b *bench) perLayer() map[string]float64 {
	plain, traced := medians(b.plain), medians(b.withTrace)
	out := map[string]float64{}
	for k, v := range b.ladderValues {
		out[k] = v
	}
	for k, v := range traced {
		out[k] = v
	}
	for _, k := range []string{"throughput_tx_s", "runtime.gc_cycles_per_ktx", "runtime.gc_cpu_frac", "runtime.gc_pause_p99_us"} {
		out[k] = plain[k]
	}
	out["obs.trace_overhead_frac"] = 1 - ratio(traced["throughput_tx_s"], plain["throughput_tx_s"])
	return out
}

// medians returns, per metric, the median of the rounds that report it.
func medians(rounds []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}
