package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// shortened returns a copy of the workload whose warm-up is a few entries, so
// a test deploys in about a second. Titles, placement and options are the
// benchmark's own.
func shortened(w *workload) *workload {
	c := *w
	c.warm = 4
	if c.lockstep {
		c.warm = 1
	}
	return &c
}

// TestWorkloadsRunVerified deploys every workload and runs a short list end to
// end with every byte checked, then a short unverified window whose counter
// self-checks must pass. No timing is asserted.
func TestWorkloadsRunVerified(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := shortened(w)
			dep, err := deploy(w, w.list(1), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer dep.close()
			entries := 16
			if w.lockstep {
				entries = 3
			}
			got := dep.drive(driveConfig{from: w.warm, entries: entries, verify: true})
			if got.failed != 0 || got.attempted == 0 {
				t.Fatalf("%d of %d verified watches failed: %s", got.failed, got.attempted, got.firstFailure)
			}
			win, err := dep.window(0.6, nil)
			if err != nil {
				t.Fatal(err)
			}
			if win.failed != 0 {
				t.Fatalf("%d of %d window watches failed: %s", win.failed, win.attempted, win.firstFailure)
			}
			if bad := w.check(win); len(bad) != 0 {
				t.Fatalf("self-checks: %v", bad)
			}
		})
	}
}

func TestListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.list(7), w.list(7), w.list(8)
		if len(a) != w.listLen {
			t.Errorf("%s: list has %d entries, want %d", w.name, len(a), w.listLen)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two lists", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.name)
		}
	}
}

// TestMetricSets pins the printed metric sets: well-formed unique names, and
// BENCHMARK.json exactly as the tables define it.
func TestMetricSets(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not describe metric %q", name)
		}
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with: go run -C bench . -describe > BENCHMARK.json")
	}
}

// TestRunPrintsEveryMetric runs one short traced run and checks that both
// metric sets come out complete, the run is correct, and spans were recorded.
func TestRunPrintsEveryMetric(t *testing.T) {
	w := shortened(findWorkload("origin_pull"))
	tr := newTracer()
	res, err := runWorkload(w, 1, 0.8, t.TempDir(), tr)
	if res != nil && res.dep != nil {
		defer res.dep.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.window.failed != 0 || res.after.failed != 0 || len(res.selfChecks) != 0 {
		t.Fatalf("run not correct: %d+%d failed, self-checks %v", res.window.failed, res.after.failed, res.selfChecks)
	}
	vals := watchValues(res)
	if err := layerValues(res, vals, tr); err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, watchExtras, perLayer} {
		got, missing := collect(defs, vals)
		if len(missing) != 0 || len(got) != len(defs) {
			t.Errorf("metrics without a value: %v", missing)
		}
	}
	names := map[string]bool{}
	for _, s := range selfTimes(tr.spans) {
		names[s.Name] = true
	}
	for _, want := range []string{"watch", "watch.startup", "watch.stream", "cluster", "probe.server.cluster_get"} {
		if !names[want] {
			t.Errorf("no %q span recorded (have %d names)", want, len(names))
		}
	}
}

// TestTieredRelayCountersRepeat replays tiered_relay's short list twice: the
// relay, merge and origin-read counters are counts of the program's work and
// must not depend on timing.
func TestTieredRelayCountersRepeat(t *testing.T) {
	w := shortened(findWorkload("tiered_relay"))
	counters := func() map[string]int64 {
		dep, err := deploy(w, w.list(1), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer dep.close()
		before := dep.svc.Metrics()
		got := dep.drive(driveConfig{from: w.warm, entries: 6, verify: true})
		if got.failed != 0 {
			t.Fatalf("%d watches failed: %s", got.failed, got.firstFailure)
		}
		win := windowResult{before: before, after: dep.svc.Metrics()}
		return map[string]int64{
			"relay_upstreams":   win.sumDelta("server.relay_upstreams"),
			"sessions_merged":   win.sumDelta("merge.sessions_merged"),
			"origin_disk_reads": win.delta(originNode, "server.disk_reads"),
		}
	}
	a, b := counters(), counters()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("counters differ between two runs of one list: %v vs %v", a, b)
	}
	if a["relay_upstreams"] == 0 || a["sessions_merged"] == 0 {
		t.Errorf("relay path not exercised: %v", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	sort.Float64s(vals)
	if got := percentile(vals, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "goodput_mib_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		cand []float64
		want string
	}{
		{[]float64{99, 100, 98, 101, 100}, verdictPass},
		{[]float64{85, 86, 84, 85, 87}, verdictFail},
	} {
		if got, _, _ := judge(d, base, tc.cand); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.cand, got, tc.want)
		}
	}
	wide := []float64{80, 120, 100, 70, 130}
	if got, _, _ := judge(d, wide, []float64{99, 100, 101, 98, 102}); got != verdictUnresolved {
		t.Errorf("spread wider than the bound = %s, want %s", got, verdictUnresolved)
	}
}
