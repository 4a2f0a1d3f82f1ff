package experiments

import (
	"strings"
	"testing"
)

// TestChurnStudySmoke runs Ext-17 end to end and checks its claim
// structurally: four phases in order, zero failed watches and full admit rate
// through join, drain, and kill, redirects where the front door must bounce,
// and a Failed verdict on the survivors after the hard kill.
func TestChurnStudySmoke(t *testing.T) {
	rows, err := ChurnStudy(DefaultChurnStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, phase := range []string{"steady", "join", "drain", "kill"} {
		if rows[i].Phase != phase {
			t.Fatalf("phase %d = %q, want %q", i, rows[i].Phase, phase)
		}
		if rows[i].Failed != 0 || rows[i].AdmitRate != 1 {
			t.Fatalf("%s phase: %d failed, admit rate %.2f — churn must not drop watches",
				phase, rows[i].Failed, rows[i].AdmitRate)
		}
	}
	steady, join, drain, kill := rows[0], rows[1], rows[2], rows[3]
	if steady.Redirects == 0 {
		t.Fatal("steady phase never bounced a non-holder watch")
	}
	if steady.AliveMembers != 3 {
		t.Fatalf("steady fleet = %d alive, want 3", steady.AliveMembers)
	}
	if join.AliveMembers != 4 {
		t.Fatalf("post-join fleet = %d alive, want 4", join.AliveMembers)
	}
	// The joiner serves its re-replicated title locally, so join's mean hops
	// drop below steady's (where every watch bounced).
	if join.MeanRedirectHops >= steady.MeanRedirectHops {
		t.Fatalf("join mean hops %.2f did not drop below steady %.2f: the joiner never served locally",
			join.MeanRedirectHops, steady.MeanRedirectHops)
	}
	if drain.Redirects == 0 {
		t.Fatal("drain phase never redirected off the draining node")
	}
	if kill.FailedMembers == 0 {
		t.Fatal("kill phase: survivors never marked the killed node failed")
	}
	if got := ChurnStructural(rows, rows); len(got) != 0 {
		t.Fatalf("healthy run failed its own gate: %v", got)
	}
	out := FormatChurnStudy(rows)
	for _, phase := range []string{"steady", "join", "drain", "kill"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("formatted study missing %q:\n%s", phase, out)
		}
	}
}

func TestChurnStudyConfigValidation(t *testing.T) {
	mutations := []func(*ChurnStudyConfig){
		func(c *ChurnStudyConfig) { c.WatchesPerPhase = 0 },
		func(c *ChurnStudyConfig) { c.TitleClusters = 0 },
		func(c *ChurnStudyConfig) { c.ClusterBytes = 0 },
		func(c *ChurnStudyConfig) { c.BitrateMbps = 0 },
		func(c *ChurnStudyConfig) { c.MembershipInterval = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultChurnStudyConfig()
		mutate(&cfg)
		if _, err := ChurnStudy(cfg); err == nil {
			t.Fatalf("mutation %d: bad config accepted", i)
		}
	}
}

// TestChurnRegressionGate exercises the gate's individual tripwires.
func TestChurnRegressionGate(t *testing.T) {
	healthy := []ChurnRow{
		{Phase: "steady", Watches: 4, Granted: 4, AdmitRate: 1, Redirects: 4, MeanRedirectHops: 1},
		{Phase: "join", Watches: 4, Granted: 4, AdmitRate: 1, Redirects: 2, MeanRedirectHops: 0.5},
		{Phase: "drain", Watches: 4, Granted: 4, AdmitRate: 1, Redirects: 4, MeanRedirectHops: 1},
		{Phase: "kill", Watches: 4, Granted: 4, AdmitRate: 1, FailedMembers: 1},
	}
	if got := ChurnStructural(healthy, healthy); len(got) != 0 {
		t.Fatalf("healthy rows flagged: %v", got)
	}
	broken := func(mutate func([]ChurnRow)) []string {
		rows := append([]ChurnRow(nil), healthy...)
		mutate(rows)
		return ChurnStructural(rows, healthy)
	}
	if got := broken(func(r []ChurnRow) { r[2].Failed = 1 }); len(got) == 0 {
		t.Fatal("failed drain watch passed the gate")
	}
	if got := broken(func(r []ChurnRow) { r[3].AdmitRate = 0.75 }); len(got) == 0 {
		t.Fatal("partial kill admit rate passed the gate")
	}
	if got := broken(func(r []ChurnRow) { r[2].Redirects = 0 }); len(got) == 0 {
		t.Fatal("redirect-free drain passed the gate")
	}
	if got := broken(func(r []ChurnRow) { r[3].FailedMembers = 0 }); len(got) == 0 {
		t.Fatal("undetected kill passed the gate")
	}
	if got := ChurnStructural(healthy[:3], healthy); len(got) == 0 {
		t.Fatal("missing kill phase passed the gate")
	}
	if got := ChurnStructural(healthy, nil); len(got) == 0 {
		t.Fatal("empty baseline passed the gate")
	}
}
