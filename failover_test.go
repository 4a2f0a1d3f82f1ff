package dvod

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/membership"
	"dvod/internal/topology"
)

// seedTenAM loads the paper's 10am link statistics into the service.
func seedTenAM(t *testing.T, svc *Service) {
	t.Helper()
	util, err := GRNETUtilization("10am")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range GRNETTopology().Links {
		id := MakeLinkID(l.A, l.B)
		if err := svc.SetLinkTraffic(l.A, l.B, util[id]*l.CapacityMbps); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailoverReroutesAroundDeadServer exercises the full loop: with two
// replicas, stopping the preferred server makes both the home's planning and
// its live delivery fall over to the survivor once the home's own membership
// view declares the dead server Failed. Rounds are driven by hand on a
// virtual clock, so no wall time decides the verdict.
func TestFailoverReroutesAroundDeadServer(t *testing.T) {
	svc, err := New(GRNETTopology(),
		WithClusterBytes(4096),
		WithDisks(2, 1<<20),
		WithNodeDisks("U2", 1, 1024), // home cannot cache
		WithClock(clock.NewVirtual(time.Unix(1_700_000_000, 0))),
		WithMembership(250*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	seedTenAM(t, svc)

	title := Title{Name: "failover-movie", SizeBytes: 20_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	for _, h := range []NodeID{"U4", "U5"} {
		if err := svc.Preload(h, title.Name); err != nil {
			t.Fatal(err)
		}
	}

	dec, err := svc.Plan("U2", title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != "U4" {
		t.Fatalf("initial plan = %s, want U4 (10am Experiment B conditions)", dec.Server)
	}

	// Kill Thessaloniki; its heartbeat freezes, and the home's round-counted
	// detector declares it Failed.
	if err := svc.StopServer("U4"); err != nil {
		t.Fatal(err)
	}
	for rounds := 0; svc.MemberStates("U2")["U4"] != MemberFailed; rounds++ {
		if rounds == 20 {
			t.Fatalf("U2 never declared U4 failed: %v", svc.MemberStates("U2"))
		}
		svc.MembershipRound()
	}
	dec, err = svc.Plan("U2", title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != "U5" {
		t.Fatalf("post-failure plan = %s, want survivor U5", dec.Server)
	}

	// Live delivery also routes around the corpse.
	p, err := svc.Player("U2")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch(title.Name)
	if err != nil {
		t.Fatalf("Watch after failover: %v", err)
	}
	if !stats.Verified {
		t.Fatal("failover delivery not verified")
	}
	for i, src := range stats.Sources {
		if src != "U5" {
			t.Fatalf("cluster %d source = %s, want U5", i, src)
		}
	}

	if err := svc.StopServer("U99"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestServiceWebHandler(t *testing.T) {
	svc, err := New(GRNETTopology(), WithDisks(2, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	seedTenAM(t, svc)

	title := Title{Name: "web-movie", SizeBytes: 10_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload("U4", title.Name); err != nil {
		t.Fatal(err)
	}

	h, err := svc.WebHandler("tok")
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(h)
	defer web.Close()

	// Full-access: catalog.
	resp, err := http.Get(web.URL + "/titles")
	if err != nil {
		t.Fatal(err)
	}
	var titles []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&titles); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(titles) != 1 {
		t.Fatalf("titles = %v", titles)
	}

	// Full-access: request → VRA decision.
	resp, err = http.Post(web.URL+"/request", "application/json",
		strings.NewReader(`{"home":"U2","title":"web-movie"}`))
	if err != nil {
		t.Fatal(err)
	}
	var dec map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dec["server"] != "U4" {
		t.Fatalf("decision = %v", dec)
	}

	// An unknown home is the caller's error, in Plan and over the web.
	if _, err := svc.Plan("U99", title.Name); !errors.Is(err, topology.ErrNodeUnknown) {
		t.Fatalf("Plan from an unknown home = %v, want ErrNodeUnknown", err)
	}
	resp, err = http.Post(web.URL+"/request", "application/json",
		strings.NewReader(`{"home":"U99","title":"web-movie"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("request from an unknown home = %d, want 400", resp.StatusCode)
	}

	// Limited-access with the right token.
	req, _ := http.NewRequest(http.MethodGet, web.URL+"/admin/links", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin links = %d", resp.StatusCode)
	}
}

// TestNodeAvailableReadsOwnTracker: a node's planner filter drops a holder
// that node's own membership view has declared Failed, and keeps one it
// merely suspects or has never heard of. Without a tracker there is no filter.
func TestNodeAvailableReadsOwnTracker(t *testing.T) {
	tr, err := membership.New(membership.Config{Self: "A", Seeds: []NodeID{"A", "B", "C", "D"},
		DisableLocalHealth: true})
	if err != nil {
		t.Fatal(err)
	}
	avail := nodeAvailable(tr)
	for i := 0; i < membership.DefaultSuspectRounds; i++ {
		tr.Beat()
		tr.ReportContactFailed("B")
	}
	for _, p := range tr.StartProbes() {
		if p.Target == "B" {
			tr.ReportIndirect("B", false)
		}
	}
	if m, _ := tr.Member("B"); m.State != membership.Suspect || !avail("B") {
		t.Fatalf("B is %v and available=%v, want a suspect that is still a candidate", m.State, avail("B"))
	}
	for i := membership.DefaultSuspectRounds; i < membership.DefaultFailRounds; i++ {
		tr.Beat()
	}
	if m, _ := tr.Member("B"); m.State != membership.Failed || avail("B") {
		t.Fatalf("B is %v and available=%v, want a failed holder dropped", m.State, avail("B"))
	}
	if !avail("A") || !avail("E") {
		t.Fatal("an alive member or a holder the view does not know was dropped")
	}
	if nodeAvailable(nil) != nil {
		t.Fatal("without a tracker the planner must admit every holder")
	}
}
