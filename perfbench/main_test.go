package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range specs {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, c := range []struct {
		kind string
		decl []metricDecl
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark prints %d", c.kind, len(c.decl), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.decl[i].Name != d.name || c.decl[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], benchmark %s [%s]", c.kind, i, c.decl[i].Name, c.decl[i].Unit, d.name, d.unit)
			}
		}
	}
}

type metricDecl struct{ Name, Unit string }

// runOps executes n generated operations per worker, one worker after
// the other, and fails the test on any failed operation.
func runOps(t *testing.T, wl workload, workers, n int) {
	t.Helper()
	wl.setup(7, workers)
	for i := 0; i < workers; i++ {
		for _, o := range wl.gen(rand.New(rand.NewSource(int64(i))), n) {
			if err := safeExec(wl, i, o, nil); err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
	}
	if err := wl.check(); err != nil {
		t.Fatalf("untampered run: %v", err)
	}
}

// TestTamperedTallyCaught shows that each workload's check catches a
// committed tally that disagrees with the committed state.
func TestTamperedTallyCaught(t *testing.T) {
	cases := []struct {
		name   string
		wl     workload
		tamper func(wl workload)
		want   string
	}{
		{"session/insert", &session{}, func(wl workload) { wl.(*session).ws[1].inserts++ }, "committed Size"},
		{"session/remove", &session{}, func(wl workload) { wl.(*session).ws[0].removes++ }, "committed Size"},
		{"ordered-feed/insert", &feed{}, func(wl workload) { wl.(*feed).ws[0].inserts++ }, "committed Size"},
		{"ordered-feed/poll", &feed{}, func(wl workload) { wl.(*feed).ws[1].polls++ }, "CommittedSize"},
		{"ordered-feed/lost-event", &feed{}, func(wl workload) { wl.(*feed).ws[0].seen[0][0] &^= 1 }, "neither polled nor queued"},
		{"ordered-feed/duplicate-event", &feed{}, func(wl workload) {
			f := wl.(*feed)
			if err := f.ws[1].record(f, f.event(0, 0)); err != nil {
				panic(err)
			}
		}, "polled twice"},
		{"ordered-feed/phantom-event", &feed{}, func(wl workload) {
			f := wl.(*feed)
			if err := f.ws[1].record(f, f.event(0, f.ws[0].puts)); err != nil {
				panic(err)
			}
		}, "never enqueued"},
		{"jbb/new-order", &jbbWorkload{}, func(wl workload) { wl.(*jbbWorkload).counts[0].NewOrders++ }, "orderTable size"},
		{"jbb/payment", &jbbWorkload{}, func(wl workload) { wl.(*jbbWorkload).counts[1].PaymentTotal++ }, "ytd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runOps(t, c.wl, 2, 2000)
			c.tamper(c.wl)
			err := c.wl.check()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("tampered tally: check returned %v, want an error mentioning %q", err, c.want)
			}
		})
	}
}

// calls names the call metrics each workload measures itself; the
// others read 0 on it.
var calls = map[string][]string{
	"session":      {"stm.tx_self_ns", "stm.snapshot_tx_ns", "core.map_"},
	"jbb":          {"jbb."},
	"ordered-feed": {"stm.tx_self_ns", "core.sortedmap_", "core.queue_"},
}

func isCallMetric(name string) bool {
	return strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "jbb.") || name == "stm.tx_self_ns" || name == "stm.snapshot_tx_ns"
}

// TestSmallRun runs every workload with tiny rounds, untraced and
// traced, and checks that it reports every declared metric it makes.
func TestSmallRun(t *testing.T) {
	for name, sp := range specs {
		for _, traced := range []bool{false, true} {
			sp.warmOps, sp.timedOps, sp.setupReps = 200, 1000, 2
			b := newBench(sp, 3, 2, traced)
			b.run(0)
			if b.failed != 0 || b.checkErr != nil {
				t.Fatalf("%s traced=%v: %d failed (%v), check: %v", name, traced, b.failed, b.firstFail, b.checkErr)
			}
			defs, values := endToEnd, b.endToEnd()
			if traced {
				b.ladder()
				defs, values = perLayer, b.perLayer()
			}
			for _, d := range defs {
				_, ok := values[d.name]
				want := !traced || !isCallMetric(d.name) || slices.ContainsFunc(calls[name], func(p string) bool { return strings.HasPrefix(d.name, p) })
				if ok != want {
					t.Errorf("%s traced=%v: metric %s measured %v, want %v", name, traced, d.name, ok, want)
				}
			}
			if values["throughput_tx_s"] <= 0 && !traced {
				t.Errorf("%s: throughput %v", name, values["throughput_tx_s"])
			}
		}
	}
}

func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "session", "--trace", "2"},
		{"--workload", "session", "--seconds", "0"},
	} {
		if code := run(args, new(strings.Builder)); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
