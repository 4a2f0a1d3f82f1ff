package experiments

import (
	"strings"
	"testing"
	"time"

	"dvod/internal/client"
)

// records builds arrival records separated by the given gaps.
func records(start time.Time, gaps ...time.Duration) []client.ClusterRecord {
	recs := []client.ClusterRecord{{ArrivedAt: start}}
	at := start
	for _, g := range gaps {
		at = at.Add(g)
		recs = append(recs, client.ClusterRecord{ArrivedAt: at})
	}
	return recs
}

// TestChaosStudySmoke runs Ext-15 end to end at reduced concurrency and
// checks the structural contract: every schedule yields a bare and a defended
// row, faults actually fired in every cell, and the defense never fails more
// watches than the bare plane it is supposed to improve on.
func TestChaosStudySmoke(t *testing.T) {
	cfg := DefaultChaosStudyConfig()
	cfg.Watchers = 2
	rows, err := ChaosStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schedules := ChaosSchedules()
	if len(rows) != 2*len(schedules) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(schedules))
	}
	for i, schedule := range schedules {
		bare, defended := rows[2*i], rows[2*i+1]
		if bare.Schedule != schedule || defended.Schedule != schedule {
			t.Fatalf("row pair %d schedules = %q/%q, want %q", i, bare.Schedule, defended.Schedule, schedule)
		}
		if bare.Mode != "bare" || defended.Mode != "defended" {
			t.Fatalf("%s: modes = %q/%q", schedule, bare.Mode, defended.Mode)
		}
		for _, r := range []ChaosRow{bare, defended} {
			if r.Watchers != cfg.Watchers {
				t.Fatalf("%s/%s: watchers = %d, want %d", r.Schedule, r.Mode, r.Watchers, cfg.Watchers)
			}
			if r.InjectedFaults == 0 {
				t.Fatalf("%s/%s: no faults injected", r.Schedule, r.Mode)
			}
			if r.FailedWatches < 0 || r.FailedWatches > cfg.Watchers {
				t.Fatalf("%s/%s: failed watches = %d", r.Schedule, r.Mode, r.FailedWatches)
			}
		}
		if defended.FailedWatches > bare.FailedWatches {
			t.Fatalf("%s: defense failed %d watches vs bare %d", schedule,
				defended.FailedWatches, bare.FailedWatches)
		}
		if bare.Resumes != 0 {
			t.Fatalf("%s: bare players cannot resume, saw %d", schedule, bare.Resumes)
		}
	}
	out := FormatChaosStudy(rows)
	if !strings.Contains(out, "flap") || !strings.Contains(out, "defended") {
		t.Fatalf("formatted study missing rows:\n%s", out)
	}
}

// TestChaosFailoverDefendedNeverResumes: origin-a dies for 200 ms while
// origin-b stays healthy. Every failover happens per cluster inside the home
// server, so the defended arm loses no watch and no player has to resume a
// session. The home's breaker stops planning the dead peer after a few
// failed fetches, so retries stay within two per watcher; without breakers
// every cluster fetched in the window pays one, well over a hundred.
func TestChaosFailoverDefendedNeverResumes(t *testing.T) {
	cfg := DefaultChaosStudyConfig()
	row, err := chaosCell(cfg, "failover", true)
	if err != nil {
		t.Fatal(err)
	}
	if row.InjectedFaults == 0 {
		t.Fatal("no faults injected")
	}
	if row.FailedWatches != 0 || row.Resumes != 0 {
		t.Fatalf("defended failover: %d failed watches and %d client resumes, want 0 and 0",
			row.FailedWatches, row.Resumes)
	}
	if limit := int64(2 * cfg.Watchers); row.Retries > limit {
		t.Fatalf("defended failover: %d fetch retries, want at most %d: the dead peer was not cut off",
			row.Retries, limit)
	}
}

func TestChaosStudyConfigValidation(t *testing.T) {
	mutations := []func(*ChaosStudyConfig){
		func(c *ChaosStudyConfig) { c.Watchers = 0 },
		func(c *ChaosStudyConfig) { c.TitleClusters = 0 },
		func(c *ChaosStudyConfig) { c.ClusterBytes = 0 },
		func(c *ChaosStudyConfig) { c.BitrateMbps = 0 },
		func(c *ChaosStudyConfig) { c.Drag = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultChaosStudyConfig()
		mutate(&cfg)
		if _, err := ChaosStudy(cfg); err == nil {
			t.Errorf("mutation %d: bad config accepted", i)
		}
	}
	if _, _, err := chaosPlan(DefaultChaosStudyConfig(), "earthquake"); err == nil {
		t.Error("unknown schedule accepted")
	}
}

// TestChaosRegressionGate pins the gate's semantics: each defended metric is
// allowed 20% over baseline plus its absolute slack, bare rows are never
// gated, and schedules absent from the baseline pass.
func TestChaosRegressionGate(t *testing.T) {
	baseline := []ChaosRow{
		{Schedule: "flap", Mode: "defended", FailedRate: 0, RebufferRate: 1, MTTRms: 20},
		{Schedule: "flap", Mode: "bare", FailedRate: 1, RebufferRate: 4, MTTRms: 500},
	}
	ok := []ChaosRow{
		{Schedule: "flap", Mode: "defended", FailedRate: 0.25, RebufferRate: 2.1, MTTRms: 70},
		// Bare arms regress freely; they are the control, not the contract.
		{Schedule: "flap", Mode: "bare", FailedRate: 1, RebufferRate: 40, MTTRms: 5000},
		// No baseline for this schedule: nothing to gate against.
		{Schedule: "quake", Mode: "defended", FailedRate: 1, RebufferRate: 40, MTTRms: 5000},
	}
	if bad, _ := regression(t, "chaos", ok, baseline); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	cases := []struct {
		name string
		row  ChaosRow
		want string
	}{
		{"failed rate", ChaosRow{Schedule: "flap", Mode: "defended", FailedRate: 0.35}, "failed-watch"},
		{"rebuffer rate", ChaosRow{Schedule: "flap", Mode: "defended", RebufferRate: 2.3}, "rebuffer"},
		{"mttr", ChaosRow{Schedule: "flap", Mode: "defended", MTTRms: 75}, "MTTR"},
	}
	for _, tc := range cases {
		bad, _ := regression(t, "chaos", []ChaosRow{tc.row}, baseline)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: gate output %v, want one %q message", tc.name, bad, tc.want)
		}
	}
}

// TestChaosGateHalves: the failed-watch rate and a schedule gone missing are
// structural; the rebuffer rate and MTTR are timing and only the timing half
// judges them.
func TestChaosGateHalves(t *testing.T) {
	baseline := []ChaosRow{
		{Schedule: "flap", Mode: "defended", FailedRate: 0, RebufferRate: 1, MTTRms: 20},
		{Schedule: "stall", Mode: "defended", FailedRate: 0, RebufferRate: 1, MTTRms: 20},
	}
	slow := []ChaosRow{
		{Schedule: "flap", Mode: "defended", RebufferRate: 9, MTTRms: 900},
		{Schedule: "stall", Mode: "defended"},
	}
	if bad := ChaosStructural(slow, baseline); len(bad) != 0 {
		t.Fatalf("structural half judged rebuffers and MTTR: %v", bad)
	}
	if bad, _ := ChaosTiming(slow, baseline); len(bad) != 2 {
		t.Fatalf("timing half: %v, want the rebuffer and MTTR messages", bad)
	}
	failing := []ChaosRow{{Schedule: "flap", Mode: "defended", FailedRate: 1}}
	bad := ChaosStructural(failing, baseline)
	if len(bad) != 2 || !strings.Contains(bad[0], "failed-watch") || !strings.Contains(bad[1], "stall") {
		t.Fatalf("structural half: %v, want the failed rate and the missing stall schedule", bad)
	}
	if bad, _ := ChaosTiming(failing, baseline); len(bad) != 0 {
		t.Fatalf("timing half judged the failed-watch rate: %v", bad)
	}
}

func TestMaxArrivalGap(t *testing.T) {
	if g := maxArrivalGap(nil); g != 0 {
		t.Fatalf("gap of no records = %v", g)
	}
	base := time.Unix(0, 0)
	recs := records(base, 10*time.Millisecond, 5*time.Millisecond, 120*time.Millisecond, time.Millisecond)
	if g := maxArrivalGap(recs); g != 120*time.Millisecond {
		t.Fatalf("max gap = %v, want 120ms", g)
	}
}
