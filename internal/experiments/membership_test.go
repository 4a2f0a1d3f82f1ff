package experiments

import (
	"strings"
	"testing"

	"dvod/internal/transport"
)

// TestMembershipWireSizeMatchesCodec pins the study's size arithmetic to the
// real binary codec, so byte rows stay honest if the wire layout changes.
func TestMembershipWireSizeMatchesCodec(t *testing.T) {
	payloads := []transport.MemberSyncPayload{
		{From: "U1", Epoch: 1, Seq: 9, Ack: 3, Known: 4},
		{From: "frontdoor-7", Epoch: 2, Seq: 100, Known: 3, Full: true,
			Members: []transport.MemberEntry{
				{Node: "U1", Incarnation: 3, Heartbeat: 41, State: "alive"},
				{Node: "U100", Incarnation: 1, Heartbeat: 2, State: "suspect"},
				{Node: "U2", Incarnation: 7, Heartbeat: 0, State: "failed"},
			}},
	}
	for _, p := range payloads {
		enc, err := transport.AppendMemberSyncPayload(nil, p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		want := int64(len(enc) + transport.FrameHeaderLen)
		if got := memberSyncWireSize(p); got != want {
			t.Fatalf("wire size %d, codec says %d (payload %+v)", got, want, p)
		}
	}
}

// TestMembershipStudySmall runs a trimmed Ext-19 grid and checks every
// structural invariant the CI gate relies on.
func TestMembershipStudySmall(t *testing.T) {
	cfg := DefaultMembershipStudyConfig()
	cfg.Sizes = []int{64}
	rows, err := MembershipStudy(cfg)
	if err != nil {
		t.Fatalf("membership study: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	t.Logf("\n%s", FormatMembershipStudy(rows))
	var full, delta MembershipRow
	for _, r := range rows {
		switch r.Mode {
		case "full":
			full = r
		case "delta":
			delta = r
		}
	}
	if !full.Converged || !delta.Converged {
		t.Fatalf("convergence: full=%v delta=%v", full.Converged, delta.Converged)
	}
	if !full.Detected || !delta.Detected {
		t.Fatalf("detection: full=%v delta=%v", full.Detected, delta.Detected)
	}
	if delta.SteadyBytesPerRound*5 > full.SteadyBytesPerRound {
		t.Fatalf("delta bytes/round %d not 5x under full %d",
			delta.SteadyBytesPerRound, full.SteadyBytesPerRound)
	}
	if full.FalseFailed != 0 || delta.FalseFailed != 0 {
		t.Fatalf("false Failed verdicts: full=%d delta=%d", full.FalseFailed, delta.FalseFailed)
	}
	if problems := MembershipStructural(rows, rows); len(problems) != 0 {
		t.Fatalf("self-baseline regression: %v", problems)
	}
}

// TestMembershipStudyDeterministic pins that equal config and seed reproduce
// every row exactly — the property the committed baseline depends on.
func TestMembershipStudyDeterministic(t *testing.T) {
	cfg := DefaultMembershipStudyConfig()
	cfg.Sizes = []int{48}
	cfg.Modes = []string{"delta"}
	a, err := MembershipStudy(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := MembershipStudy(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestMembershipRegressionFlagsBrokenRows checks the gate actually bites.
func TestMembershipRegressionFlagsBrokenRows(t *testing.T) {
	good := []MembershipRow{
		{Nodes: 64, Mode: "full", Converged: true, Detected: true, ConvergeRounds: 10, SteadyBytesPerRound: 10000},
		{Nodes: 64, Mode: "delta", Converged: true, Detected: true, ConvergeRounds: 12, SteadyBytesPerRound: 1000},
	}
	if problems := MembershipStructural(good, good); len(problems) != 0 {
		t.Fatalf("clean rows flagged: %v", problems)
	}
	bad := []MembershipRow{
		{Nodes: 64, Mode: "full", Converged: true, Detected: true, ConvergeRounds: 10, SteadyBytesPerRound: 10000},
		{Nodes: 64, Mode: "delta", Converged: true, Detected: false, ConvergeRounds: 30,
			SteadyBytesPerRound: 9000, FalseFailed: 1},
	}
	problems := MembershipStructural(bad, good)
	wantHits := []string{"never detected", "false Failed", "not 5x", "over 2x", "regressed past 1.5x"}
	for _, want := range wantHits {
		found := false
		for _, p := range problems {
			if strings.Contains(strings.ToLower(p), strings.ToLower(want)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("gate missed %q in %v", want, problems)
		}
	}
	if problems := MembershipStructural(good, nil); len(problems) == 0 {
		t.Fatal("empty baseline not flagged")
	}
}

// TestMembershipStudy512Smoke is the CI race-matrix cell: the 512-node delta
// arm of Ext-19 under the full loss/slow-node fault plan. The full-sync arm
// and the 1000-node cells are exercised without the race detector by the
// vodbench sweep and the baseline gate — under race they would take minutes
// for no extra interleaving coverage, since the simulation is single-threaded.
func TestMembershipStudy512Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node fleet")
	}
	cfg := DefaultMembershipStudyConfig()
	cfg.Sizes = []int{512}
	cfg.Modes = []string{"delta"}
	rows, err := MembershipStudy(cfg)
	if err != nil {
		t.Fatalf("membership study: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	t.Logf("\n%s", FormatMembershipStudy(rows))
	if !r.Converged || !r.Detected {
		t.Fatalf("converged=%v detected=%v", r.Converged, r.Detected)
	}
	if r.FalseFailed != 0 {
		t.Fatalf("%d false Failed verdicts under the loss plan", r.FalseFailed)
	}
	if r.IndirectProbes == 0 {
		t.Fatal("no indirect probes fired under the loss plan")
	}
}
