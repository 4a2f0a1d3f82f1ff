package experiments

import (
	"strings"
	"testing"
)

// TestPrefixStudyShape runs a scaled-down Ext-20 end to end and checks the
// structural claims that must hold at any scale: the prefix arms start every
// session off local disk, the relay arm shares one upstream, and the relay
// arm's origin reads collapse relative to baseline.
func TestPrefixStudyShape(t *testing.T) {
	cfg := PrefixStudyConfig{
		Watchers:       15,
		Relays:         5,
		TitleClusters:  32,
		ClusterBytes:   1 << 10,
		PrefixClusters: 16,
		Window:         32,
	}
	rows, err := PrefixStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 arms", len(rows))
	}
	byArm := make(map[string]PrefixRow, 3)
	for _, r := range rows {
		byArm[r.Arm] = r
		if r.Watchers != cfg.Watchers || r.Clusters != cfg.TitleClusters {
			t.Fatalf("row geometry drifted: %+v", r)
		}
	}
	base := byArm[PrefixArmBaseline]
	if base.StartupRemoteFetches < int64(cfg.Watchers) {
		t.Fatalf("baseline remote startups = %d, want ≥ %d", base.StartupRemoteFetches, cfg.Watchers)
	}
	if base.PrefixK != 0 || base.PrefixServed != 0 {
		t.Fatalf("baseline arm touched the prefix tier: %+v", base)
	}
	for _, arm := range []string{PrefixArmPrefix, PrefixArmRelay} {
		r := byArm[arm]
		if r.PrefixK != cfg.PrefixClusters {
			t.Fatalf("%s pinned K=%d, want %d", arm, r.PrefixK, cfg.PrefixClusters)
		}
		if r.StartupRemoteFetches != 0 {
			t.Fatalf("%s arm paid %d remote startups", arm, r.StartupRemoteFetches)
		}
		// Every session's head is served off the local prefix store.
		want := int64(cfg.Watchers) * int64(cfg.PrefixClusters)
		if r.PrefixServed != want {
			t.Fatalf("%s prefix reads = %d, want %d", arm, r.PrefixServed, want)
		}
	}
	relay := byArm[PrefixArmRelay]
	if relay.RelayUpstreams == 0 {
		t.Fatal("relay arm opened no upstream subscriptions")
	}
	if relay.RelayFallbacks != 0 {
		t.Fatalf("relay arm fell back %d times on a healthy origin", relay.RelayFallbacks)
	}
	if base.OriginReads == 0 || relay.OriginReads == 0 {
		t.Fatalf("origin reads unmeasured: baseline %d relay %d", base.OriginReads, relay.OriginReads)
	}
	if cut := float64(base.OriginReads) / float64(relay.OriginReads); cut < PrefixOriginReadCutTarget {
		t.Fatalf("origin-read cut %.2fx below the %.0fx target even at toy scale (baseline %d, relay %d)",
			cut, PrefixOriginReadCutTarget, base.OriginReads, relay.OriginReads)
	}
	if s := FormatPrefixStudy(rows); !strings.Contains(s, PrefixArmRelay) {
		t.Fatalf("format dropped the relay arm:\n%s", s)
	}
	// A healthy run passes the structural gate against itself. (Its timing
	// half belongs to `vodbench -study prefix`, not to a test verdict.)
	if bad := PrefixStructural(rows, rows); len(bad) != 0 {
		t.Fatalf("self-comparison flagged: %v", bad)
	}
}

func TestPrefixStudyValidation(t *testing.T) {
	ok := PrefixStudyConfig{Watchers: 1, Relays: 1, TitleClusters: 4, ClusterBytes: 1024, PrefixClusters: 2, Window: 4}
	bad := []func(*PrefixStudyConfig){
		func(c *PrefixStudyConfig) { c.Watchers = 0 },
		func(c *PrefixStudyConfig) { c.Relays = 0 },
		func(c *PrefixStudyConfig) { c.Relays = 99 },
		func(c *PrefixStudyConfig) { c.TitleClusters = 0 },
		func(c *PrefixStudyConfig) { c.PrefixClusters = 0 },
		func(c *PrefixStudyConfig) { c.PrefixClusters = 5 },
		func(c *PrefixStudyConfig) { c.Window = 0 },
	}
	for i, mutate := range bad {
		cfg := ok
		mutate(&cfg)
		if _, err := PrefixStudy(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// prefixFixture builds a three-arm run: baseline pays one remote startup per
// session and reads the whole burst at the origin; the relay arm cuts origin
// reads by the given factor and startup P99 by the given ratio.
func prefixFixture(procs int, readCut, startupRatio float64) []PrefixRow {
	const watchers, reads = 120, 5120
	baseP99 := 40.0
	return []PrefixRow{
		{Arm: PrefixArmBaseline, Watchers: watchers, OriginReads: reads,
			StartupP99Ms: baseP99, StartupRemoteFetches: watchers, Procs: procs},
		{Arm: PrefixArmPrefix, Watchers: watchers, PrefixK: 512, OriginReads: reads / 2,
			StartupP99Ms: baseP99 * startupRatio, PrefixServed: 512 * watchers, Procs: procs},
		{Arm: PrefixArmRelay, Watchers: watchers, PrefixK: 512,
			OriginReads:  int64(float64(reads) / readCut),
			StartupP99Ms: baseP99 * startupRatio, PrefixServed: 512 * watchers,
			RelayUpstreams: 5, Procs: procs},
	}
}

func TestPrefixRegressionGates(t *testing.T) {
	base := prefixFixture(1, 10, 0.9)

	// Healthy single-core run: structural gates pass, the timing gate is
	// dropped entirely with a loud warning — even a startup inversion (the
	// CPU-bound prefix arms measuring slower than baseline) must pass, since
	// single-core time-to-first-cluster is scheduler queueing.
	bad, notes := regression(t, "prefix", prefixFixture(1, 10, 10.0), base)
	if len(bad) != 0 {
		t.Fatalf("healthy single-core run flagged: %v", bad)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "WARNING") {
		t.Fatalf("single-core run must carry a loud warning, got %v", notes)
	}
	// The warning is the timing half's: on Procs 1 rows it binds nothing
	// and says so.
	if bad, notes := PrefixTiming(base, base); len(bad) != 0 || len(notes) != 1 || !strings.Contains(notes[0], "WARNING") {
		t.Fatalf("single-core timing half: bad=%v notes=%v, want one WARNING note", bad, notes)
	}

	// Multi-core runs enforce the halving target, without a warning.
	bad, notes = regression(t, "prefix", prefixFixture(8, 10, 0.4), base)
	if len(bad) != 0 || len(notes) != 0 {
		t.Fatalf("healthy multi-core run: bad=%v notes=%v", bad, notes)
	}
	if bad, _ := regression(t, "prefix", prefixFixture(8, 10, 0.8), base); len(bad) == 0 {
		t.Fatal("0.8x startup passed the multi-core halving gate")
	}
	// The halving is the timing half's alone: the structural half passes it.
	if bad := PrefixStructural(prefixFixture(8, 10, 0.8), base); len(bad) != 0 {
		t.Fatalf("structural gate judged a startup ratio: %v", bad)
	}

	// Origin-read cut below 5x fails everywhere.
	if bad, _ := regression(t, "prefix", prefixFixture(1, 3, 0.9), base); len(bad) == 0 {
		t.Fatal("3x read cut passed the 5x gate")
	}
	// A cut >20% below the committed baseline's fails even above 5x.
	if bad, _ := regression(t, "prefix", prefixFixture(1, 6, 0.9), prefixFixture(1, 12, 0.9)); len(bad) == 0 {
		t.Fatal("6x cut passed against a committed 12x baseline")
	}

	// Remote startups on a prefix arm are the tier not working.
	broken := prefixFixture(1, 10, 0.9)
	broken[2].StartupRemoteFetches = 3
	if bad, _ := regression(t, "prefix", broken, base); len(bad) == 0 {
		t.Fatal("remote startups on the relay arm passed")
	}
	// So are relay fallbacks on a healthy origin, or zero upstreams.
	broken = prefixFixture(1, 10, 0.9)
	broken[2].RelayFallbacks = 1
	if bad, _ := regression(t, "prefix", broken, base); len(bad) == 0 {
		t.Fatal("relay fallbacks passed")
	}
	broken = prefixFixture(1, 10, 0.9)
	broken[2].RelayUpstreams = 0
	if bad, _ := regression(t, "prefix", broken, base); len(bad) == 0 {
		t.Fatal("zero upstreams passed")
	}
	// A baseline arm that never paid remote startups measured the wrong thing.
	broken = prefixFixture(1, 10, 0.9)
	broken[0].StartupRemoteFetches = 0
	if bad, _ := regression(t, "prefix", broken, base); len(bad) == 0 {
		t.Fatal("remote-free baseline arm passed")
	}

	if bad, _ := regression(t, "prefix", prefixFixture(1, 10, 0.9)[:2], base); len(bad) == 0 {
		t.Fatal("missing relay arm passed")
	}
	if bad, _ := regression(t, "prefix", nil, base); len(bad) == 0 {
		t.Fatal("empty run passed")
	}
}

func TestPercentileFloat(t *testing.T) {
	if got := percentileFloat(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // already sorted 1..100
	}
	if got := percentileFloat(vals, 0.99); got != 99 {
		t.Fatalf("P99 of 1..100 = %v, want 99", got)
	}
	if got := percentileFloat(vals, 0.5); got != 50 {
		t.Fatalf("P50 of 1..100 = %v, want 50", got)
	}
	if got := percentileFloat([]float64{7}, 0.99); got != 7 {
		t.Fatalf("singleton P99 = %v", got)
	}
}
