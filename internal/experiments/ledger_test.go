package experiments

import (
	"strings"
	"testing"
)

// TestLedgerStudySmoke runs Ext-16 end to end and checks the study's claim
// structurally: the per-server arm grants both contending watches (and so can
// oversubscribe the trunk), while the ledger arm refuses the second and never
// commits past capacity.
func TestLedgerStudySmoke(t *testing.T) {
	rows, err := LedgerStudy(DefaultLedgerStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	perServer, ledger := rows[0], rows[1]
	if perServer.Mode != "per-server" || ledger.Mode != "ledger" {
		t.Fatalf("modes = %q/%q", perServer.Mode, ledger.Mode)
	}
	if perServer.Granted != perServer.Watchers {
		t.Fatalf("per-server granted %d of %d: blind brokers must admit everything",
			perServer.Granted, perServer.Watchers)
	}
	if perServer.GossipRounds != 0 {
		t.Fatalf("per-server arm gossiped %d rounds, want 0", perServer.GossipRounds)
	}
	if perServer.PeakCommittedMbps <= perServer.TrunkMbps {
		t.Fatalf("per-server arm peaked at %.1f Mbps on a %.1f Mbps trunk: blind brokers should have jointly oversubscribed it",
			perServer.PeakCommittedMbps, perServer.TrunkMbps)
	}
	if ledger.Rejected == 0 {
		t.Fatal("ledger arm rejected nothing: the shared view never reached the second server")
	}
	if ledger.Failed != 0 {
		t.Fatalf("ledger arm had %d non-rejection failures", ledger.Failed)
	}
	if ledger.OversubscribedLinkSeconds != 0 {
		t.Fatalf("ledger arm oversubscribed the trunk for %.3fs, want 0",
			ledger.OversubscribedLinkSeconds)
	}
	if ledger.PeakCommittedMbps > ledger.TrunkMbps {
		t.Fatalf("ledger arm peaked at %.1f Mbps on a %.1f Mbps trunk",
			ledger.PeakCommittedMbps, ledger.TrunkMbps)
	}
	if ledger.GossipRounds == 0 {
		t.Fatal("ledger arm recorded no gossip rounds")
	}
	out := FormatLedgerStudy(rows)
	if !strings.Contains(out, "per-server") || !strings.Contains(out, "ledger") {
		t.Fatalf("formatted study missing rows:\n%s", out)
	}
}

func TestLedgerStudyConfigValidation(t *testing.T) {
	mutations := []func(*LedgerStudyConfig){
		func(c *LedgerStudyConfig) { c.TrunkMbps = c.BitrateMbps - 1 }, // cannot carry one
		func(c *LedgerStudyConfig) { c.TrunkMbps = 2 * c.BitrateMbps }, // nothing contended
		func(c *LedgerStudyConfig) { c.TitleClusters = 0 },
		func(c *LedgerStudyConfig) { c.ClusterBytes = 0 },
		func(c *LedgerStudyConfig) { c.Drag = 0 },
		func(c *LedgerStudyConfig) { c.Stagger = 0 },
		func(c *LedgerStudyConfig) { c.GossipInterval = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultLedgerStudyConfig()
		mutate(&cfg)
		if _, err := LedgerStudy(cfg); err == nil {
			t.Errorf("mutation %d: bad config accepted", i)
		}
	}
}

// TestLedgerRegressionGate pins the gate's semantics: the ledger arm's
// oversubscription bound is absolute, its rejection count must stay positive,
// and the per-server arm must keep granting everything.
func TestLedgerRegressionGate(t *testing.T) {
	baseline := []LedgerRow{
		{Mode: "per-server", Watchers: 2, Granted: 2, OversubscribedLinkSeconds: 0.2},
		{Mode: "ledger", Watchers: 2, Granted: 1, Rejected: 1},
	}
	ok := []LedgerRow{
		// The per-server arm oversubscribes freely — it is the control.
		{Mode: "per-server", Watchers: 2, Granted: 2, OversubscribedLinkSeconds: 3},
		{Mode: "ledger", Watchers: 2, Granted: 1, Rejected: 1},
	}
	if bad := LedgerStructural(ok, baseline); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	cases := []struct {
		name string
		rows []LedgerRow
		want string
	}{
		{"ledger oversubscription", []LedgerRow{
			{Mode: "per-server", Watchers: 2, Granted: 2},
			{Mode: "ledger", Watchers: 2, Granted: 1, Rejected: 1, OversubscribedLinkSeconds: 0.001},
		}, "oversubscribed"},
		{"ledger never rejected", []LedgerRow{
			{Mode: "per-server", Watchers: 2, Granted: 2},
			{Mode: "ledger", Watchers: 2, Granted: 2},
		}, "rejected nothing"},
		{"per-server stopped granting", []LedgerRow{
			{Mode: "per-server", Watchers: 2, Granted: 1, Rejected: 1},
			{Mode: "ledger", Watchers: 2, Granted: 1, Rejected: 1},
		}, "premise"},
		{"missing arm", []LedgerRow{
			{Mode: "ledger", Watchers: 2, Granted: 1, Rejected: 1},
		}, "per-server arm missing"},
	}
	for _, tc := range cases {
		bad := LedgerStructural(tc.rows, baseline)
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
	if bad := LedgerStructural(ok, nil); len(bad) == 0 {
		t.Error("empty baseline accepted")
	}
}
