package experiments

import (
	"strings"
	"testing"
)

// smallContentionConfig keeps the sweep fast for unit tests.
func smallContentionConfig() ContentionStudyConfig {
	cfg := DefaultContentionStudyConfig()
	cfg.Shards = []int{1, 4}
	cfg.OpsPerWorker = 500
	return cfg
}

// TestContentionStudySmoke runs Ext-18 end to end and checks the structural
// claims: every shard count produced a fully drained cell, throughput is
// positive, and the lock-free read path made progress during the storm.
func TestContentionStudySmoke(t *testing.T) {
	cfg := smallContentionConfig()
	rows, err := ContentionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Shards) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.Shards))
	}
	for i, r := range rows {
		if r.Shards != cfg.Shards[i] {
			t.Errorf("row %d shards = %d, want %d", i, r.Shards, cfg.Shards[i])
		}
		if r.Admissions != int64(cfg.Workers)*int64(cfg.OpsPerWorker) {
			t.Errorf("row %d admissions = %d", i, r.Admissions)
		}
		if r.AdmissionsPerSec <= 0 {
			t.Errorf("row %d admissions/sec = %g", i, r.AdmissionsPerSec)
		}
		if r.SnapshotReads == 0 {
			t.Errorf("row %d: lock-free readers made no progress", i)
		}
		if r.Procs <= 0 {
			t.Errorf("row %d procs = %d", i, r.Procs)
		}
	}
	out := FormatContentionStudy(rows)
	if !strings.Contains(out, "speedup") {
		t.Fatalf("formatted study missing the scaling line:\n%s", out)
	}
}

func TestContentionStudyConfigValidation(t *testing.T) {
	mutations := []func(*ContentionStudyConfig){
		func(c *ContentionStudyConfig) { c.Shards = nil },
		func(c *ContentionStudyConfig) { c.Shards = []int{4, 1} }, // must ascend
		func(c *ContentionStudyConfig) { c.Shards = []int{0} },
		func(c *ContentionStudyConfig) { c.Workers = 0 },
		func(c *ContentionStudyConfig) { c.OpsPerWorker = 0 },
		func(c *ContentionStudyConfig) { c.Links = 0 },
		func(c *ContentionStudyConfig) { c.Titles = 0 },
		func(c *ContentionStudyConfig) { c.Readers = -1 },
	}
	for i, mutate := range mutations {
		cfg := smallContentionConfig()
		mutate(&cfg)
		if _, err := ContentionStudy(cfg); err == nil {
			t.Errorf("mutation %d: bad config accepted", i)
		}
	}
}

// TestContentionRegressionGate pins the gate's semantics: the absolute floor
// and read-path liveness bind everywhere, the scaling bound tracks (and is
// capped by) what the baseline machine demonstrated, and throughput is only
// compared at matched GOMAXPROCS.
func TestContentionRegressionGate(t *testing.T) {
	mk := func(procs int, thr ...float64) []ContentionRow {
		shards := []int{1, 2, 4, 8}
		rows := make([]ContentionRow, len(thr))
		for i, v := range thr {
			rows[i] = ContentionRow{
				Shards: shards[i], Workers: 8, Procs: procs,
				Admissions: 1, AdmissionsPerSec: v, SnapshotReads: 100,
			}
		}
		return rows
	}
	baseline := mk(8, 1e6, 1.8e6, 2.9e6, 3.6e6) // 3.6x on an 8-core box
	clean := mk(8, 1e6, 1.9e6, 3.0e6, 3.3e6)    // 3.3x ≥ capped bound of 3.0
	bad, notes := regression(t, "contention", clean, baseline)
	if len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	if len(notes) != 0 {
		t.Fatalf("multi-core baseline must not warn: %v", notes)
	}

	cases := []struct {
		name    string
		current []ContentionRow
		want    string
	}{
		{"floor", mk(8, 20_000, 30_000, 50_000, 90_000), "floor"},
		{"scaling collapsed", mk(8, 3.5e6, 3.5e6, 3.5e6, 3.6e6), "speedup"},
		{"throughput regressed at matched procs", mk(8, 0.9e6, 1.7e6, 2.6e6, 2.7e6), "regressed"},
		{"missing shard counts", mk(8, 3.6e6), "missing"},
	}
	for _, tc := range cases {
		bad, _ := regression(t, "contention", tc.current, baseline)
		found := false
		for _, msg := range bad {
			if strings.Contains(msg, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: gate output %v, want a %q message", tc.name, bad, tc.want)
		}
	}

	// Read-path liveness: zero snapshot reads is a wedged read path.
	wedged := mk(8, 1e6, 1.9e6, 3.0e6, 3.3e6)
	for i := range wedged {
		wedged[i].SnapshotReads = 0
	}
	if bad, _ := regression(t, "contention", wedged, baseline); len(bad) == 0 {
		t.Error("wedged read path accepted")
	}
	// Rates are the timing half's alone: the structural half passes a run
	// under the floor and catches the wedged read path.
	if bad := ContentionStructural(cases[0].current, baseline); len(bad) != 0 {
		t.Errorf("structural gate judged an admission rate: %v", bad)
	}
	if bad := ContentionStructural(wedged, baseline); len(bad) == 0 {
		t.Error("structural gate accepted a wedged read path")
	}

	// A single-core current run cannot demonstrate scaling: only the floor
	// binds, so flat throughput above it passes even against a strong
	// multi-core baseline.
	flatSingleCore := mk(1, 2.5e6, 2.5e6, 2.5e6, 2.5e6)
	if bad, _ := regression(t, "contention", flatSingleCore, baseline); len(bad) != 0 {
		t.Errorf("single-core run flagged on scaling it cannot show: %v", bad)
	}

	if bad, _ := regression(t, "contention", clean, nil); len(bad) == 0 {
		t.Error("empty baseline accepted")
	}
	if bad, _ := regression(t, "contention", nil, baseline); len(bad) == 0 {
		t.Error("empty current run accepted")
	}
}

// TestContentionRegressionSingleCoreBaseline pins the baseline-guard rule: a
// baseline measured below GOMAXPROCS 4 demonstrated nothing about shard
// scaling, so the gate warns loudly, refuses to derive the bound from it, and
// holds multi-core runs to the fixed ContentionParallelScalingFloor instead.
func TestContentionRegressionSingleCoreBaseline(t *testing.T) {
	mk := func(procs int, thr ...float64) []ContentionRow {
		shards := []int{1, 2, 4, 8}
		rows := make([]ContentionRow, len(thr))
		for i, v := range thr {
			rows[i] = ContentionRow{
				Shards: shards[i], Workers: 8, Procs: procs,
				Admissions: 1, AdmissionsPerSec: v, SnapshotReads: 100,
			}
		}
		return rows
	}
	weakBaseline := mk(1, 2.5e6, 2.5e6, 2.5e6, 2.5e6)

	// Any comparison against a single-core baseline carries the loud warning,
	// even when the current run is single-core too (the scaling check is
	// skipped there, but maintainers still need to hear the baseline is weak).
	for _, cur := range [][]ContentionRow{
		mk(1, 2.5e6, 2.5e6, 2.5e6, 2.5e6),
		mk(8, 3.0e6, 3.1e6, 3.2e6, 3.45e6),
	} {
		bad, notes := regression(t, "contention", cur, weakBaseline)
		if len(bad) != 0 {
			t.Fatalf("procs=%d run flagged against a single-core baseline: %v", cur[0].Procs, bad)
		}
		warned := false
		for _, n := range notes {
			if strings.Contains(n, "WARNING") && strings.Contains(n, "GOMAXPROCS 1") {
				warned = true
			}
		}
		if !warned {
			t.Fatalf("procs=%d: no loud warning about the single-core baseline, notes = %v",
				cur[0].Procs, notes)
		}
	}

	// The single-core baseline's own speedup (~1.0) must NOT become the bound
	// — the self-tightening formula would demand only 0.8x. Instead a
	// multi-core run below the fixed parallel floor fails.
	flatMulticore := mk(8, 3.5e6, 3.5e6, 3.5e6, 3.55e6) // 1.01x < 1.1x floor
	bad, _ := regression(t, "contention", flatMulticore, weakBaseline)
	found := false
	for _, msg := range bad {
		if strings.Contains(msg, "parallel floor") {
			found = true
		}
	}
	if !found {
		t.Fatalf("flat multi-core run passed against a single-core baseline: %v", bad)
	}

	// Modest real scaling above the floor passes: the gate never invents a 3x
	// demand out of a baseline that could not demonstrate one.
	modestMulticore := mk(8, 3.0e6, 3.1e6, 3.2e6, 3.45e6) // 1.15x
	if bad, _ := regression(t, "contention", modestMulticore, weakBaseline); len(bad) != 0 {
		t.Fatalf("modest scaling flagged against a single-core baseline: %v", bad)
	}
}
