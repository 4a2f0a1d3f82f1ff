package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvod/internal/experiments"
)

func TestRunSingleStudies(t *testing.T) {
	cases := []struct {
		study string
		want  string
	}{
		{"striping", "Ext-4"},
		{"k", "Ext-5"},
		{"cluster", "Ext-3"},
		{"admission", "Ext-12"},
	}
	for _, tc := range cases {
		var b strings.Builder
		if err := run(&b, tc.study, 1, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", ""); err != nil {
			t.Fatalf("run(%s): %v", tc.study, err)
		}
		if !strings.Contains(b.String(), tc.want) {
			t.Errorf("run(%s) missing %q:\n%s", tc.study, tc.want, b.String())
		}
	}
}

func TestRunRoutingStudyShortTrace(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "routing", 1, 15*time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("run(routing): %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "vra") || !strings.Contains(out, "minhop") {
		t.Fatalf("routing output:\n%s", out)
	}
}

func TestRunUnknownStudy(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "bogus", 1, time.Minute, 1, "premium:1", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", "", ""); err == nil {
		t.Fatal("unknown study accepted")
	}
}

// TestRunFramingBaselineRoundTrip writes a framing baseline, reads it back,
// verifies the measured rows pass the structural gate against it, and
// verifies a baseline whose cells the run no longer measures is refused. The
// gate's timing half (the kernel-over-binary speedup) is the CLI's and CI's
// to enforce, not a test verdict.
func TestRunFramingBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_framing.json")
	var b strings.Builder
	if err := run(&b, "framing", 7, time.Minute, 0.01, "premium:1", "", baseline, "", "", "", "", "", "", "", "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("framing baseline write: %v", err)
	}
	base, err := loadBaseline[framingReport]("framing", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.FramingStructural(base.Rows, base.Rows); len(bad) != 0 {
		t.Fatalf("measured rows failed the structural gate against themselves: %v", bad)
	}
	// A baseline promising a framing arm the run does not measure fails.
	bogus := `{"study":"framing","rows":[{"Framing":"quic","ClusterBytes":65536,"MBps":1}]}`
	if err := os.WriteFile(baseline, []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}
	promised, err := loadBaseline[framingReport]("framing", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.FramingStructural(base.Rows, promised.Rows); len(bad) == 0 {
		t.Fatal("baseline with unmeasured cells accepted")
	}
}

// TestRunContentionBaselineRoundTrip writes a contention baseline, reads it
// back, verifies the measured rows pass the structural gate against it, and
// verifies an empty baseline is refused. The gate's timing half (the
// admissions/sec floor and shard scaling) is the CLI's and CI's to enforce,
// not a test verdict.
func TestRunContentionBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_contention.json")
	var b strings.Builder
	if err := run(&b, "contention", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", "", "", baseline, "", "", "", "", ""); err != nil {
		t.Fatalf("contention baseline write: %v", err)
	}
	base, err := loadBaseline[contentionReport]("contention", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.ContentionStructural(base.Rows, base.Rows); len(bad) != 0 {
		t.Fatalf("measured rows failed the structural gate against themselves: %v", bad)
	}
	if err := os.WriteFile(baseline, []byte(`{"study":"contention","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty, err := loadBaseline[contentionReport]("contention", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.ContentionStructural(base.Rows, empty.Rows); len(bad) == 0 {
		t.Fatal("empty baseline accepted")
	}
}

// TestRunChaosBaselineRoundTrip writes a chaos baseline, reads it back,
// verifies the measured rows pass the structural gate against it, and
// verifies a baseline gating a schedule the run does not measure is refused.
// The gate's timing half (rebuffer rate and MTTR) is the CLI's and CI's to
// enforce, not a test verdict.
func TestRunChaosBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("a full chaos study run")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_chaos.json")
	var b strings.Builder
	if err := run(&b, "chaos", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", baseline, "", "", "", "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("chaos baseline write: %v", err)
	}
	base, err := loadBaseline[chaosReport]("chaos", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.ChaosStructural(base.Rows, base.Rows); len(bad) != 0 {
		t.Fatalf("measured rows failed the structural gate against themselves: %v", bad)
	}
	promised := append([]experiments.ChaosRow{{Schedule: "earthquake", Mode: "defended"}}, base.Rows...)
	if bad := experiments.ChaosStructural(base.Rows, promised); len(bad) == 0 {
		t.Fatal("baseline with an unmeasured schedule accepted")
	}
}

// TestRunMergeBaselineRoundTrip writes a merge baseline, reads it back,
// verifies the measured rows pass the structural gate against it, and
// verifies a run in which no session merged is refused. The gate's timing
// half (the origin-read saving's drift) is the CLI's and CI's to enforce,
// not a test verdict.
func TestRunMergeBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("a full merge study run")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_merge.json")
	var b strings.Builder
	if err := run(&b, "merge", 1, time.Minute, 0.01, "premium:1", "", "", "", baseline, "", "", "", "", "", "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("merge baseline write: %v", err)
	}
	base, err := loadBaseline[mergeReport]("merge", baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bad := experiments.MergeStructural(base.Rows, base.Rows); len(bad) != 0 {
		t.Fatalf("measured rows failed the structural gate against themselves: %v", bad)
	}
	unmerged := append([]experiments.MergeRow(nil), base.Rows...)
	for i := range unmerged {
		unmerged[i].Merged = 0
	}
	if bad := experiments.MergeStructural(unmerged, base.Rows); len(bad) == 0 {
		t.Fatal("a run with no merged session accepted")
	}
}

// TestRunLedgerBaselineRoundTrip writes a ledger baseline, verifies a fresh
// run passes the gate against it, and verifies a run gated against a baseline
// cannot hide oversubscription (a doctored current run is simulated by gating
// a per-server-only baseline, which the gate rejects as missing its arm).
func TestRunLedgerBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("two full ledger study runs")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_ledger.json")
	var b strings.Builder
	if err := run(&b, "ledger", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", baseline, "", "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("ledger baseline write: %v", err)
	}
	if err := run(&b, "ledger", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", baseline, "", "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("ledger baseline check: %v", err)
	}
	// An empty baseline carries nothing to certify against: the gate must
	// refuse rather than silently pass.
	if err := os.WriteFile(baseline, []byte(`{"study":"ledger","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "ledger", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", baseline, "", "", "", "", "", "", "", ""); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestRunChurnBaselineRoundTrip writes a churn baseline, verifies a fresh run
// passes the gate against it, and verifies an empty baseline is refused.
func TestRunChurnBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_churn.json")
	var b strings.Builder
	if err := run(&b, "churn", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", baseline, "", "", "", "", "", "", ""); err != nil {
		t.Fatalf("churn baseline write: %v", err)
	}
	if err := run(&b, "churn", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", "", baseline, "", "", "", "", "", ""); err != nil {
		t.Fatalf("churn baseline check: %v", err)
	}
	if err := os.WriteFile(baseline, []byte(`{"study":"churn","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "churn", 7, time.Minute, 0.01, "premium:1", "", "", "", "", "", "", "", "", "", "", baseline, "", "", "", "", "", ""); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestMembershipGateRoundTrip exercises the Ext-19 CLI gate without re-running
// the study (the full grid runs in TestRunAllStudies): a healthy report passes
// against itself, an empty baseline is refused, and doctored current rows —
// a false Failed verdict, or delta bytes creeping toward full sync — fail.
func TestMembershipGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_membership.json")
	rows := []experiments.MembershipRow{
		{Nodes: 512, Mode: "full", Converged: true, Detected: true,
			ConvergeRounds: 5, DetectRounds: 15, SteadyBytesPerRound: 22000000},
		{Nodes: 512, Mode: "delta", Converged: true, Detected: true,
			ConvergeRounds: 5, DetectRounds: 15, SteadyBytesPerRound: 1300000},
	}
	data, err := json.Marshal(membershipReport{Study: "membership", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := checkMembershipBaseline(&b, rows, baseline); err != nil {
		t.Fatalf("healthy rows failed the gate: %v", err)
	}
	falseFailed := append([]experiments.MembershipRow(nil), rows...)
	falseFailed[1].FalseFailed = 1
	if err := checkMembershipBaseline(&b, falseFailed, baseline); err == nil {
		t.Fatal("false Failed verdict passed the gate")
	}
	fat := append([]experiments.MembershipRow(nil), rows...)
	fat[1].SteadyBytesPerRound = 9000000
	if err := checkMembershipBaseline(&b, fat, baseline); err == nil {
		t.Fatal("delta bytes within 5x of full passed the gate")
	}
	if err := os.WriteFile(baseline, []byte(`{"study":"membership","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkMembershipBaseline(&b, rows, baseline); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// TestPrefixGateRoundTrip exercises the Ext-20 CLI gate without re-running the
// study (the full three-arm run lands in TestRunAllStudies): a healthy report
// passes against itself, doctored rows — remote startups on a prefix arm, a
// collapsed origin-read cut, relay fallbacks — fail, and an empty baseline
// still gates the structural bounds.
func TestPrefixGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_prefix.json")
	rows := []experiments.PrefixRow{
		{Arm: "baseline", Watchers: 120, OriginReads: 5120,
			StartupP99Ms: 40, StartupRemoteFetches: 120, Procs: 1},
		{Arm: "prefix", Watchers: 120, PrefixK: 512, OriginReads: 2560,
			StartupP99Ms: 30, PrefixServed: 61440, Procs: 1},
		{Arm: "prefix+relay", Watchers: 120, PrefixK: 512, OriginReads: 512,
			StartupP99Ms: 30, PrefixServed: 61440, RelayUpstreams: 5, Procs: 1},
	}
	data, err := json.Marshal(prefixReport{Study: "prefix", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := checkPrefixBaseline(&b, rows, baseline); err != nil {
		t.Fatalf("healthy rows failed the gate: %v", err)
	}
	if !strings.Contains(b.String(), "WARNING") {
		t.Fatalf("single-core gate must warn about the relaxed startup bound:\n%s", b.String())
	}
	remote := append([]experiments.PrefixRow(nil), rows...)
	remote[2].StartupRemoteFetches = 7
	if err := checkPrefixBaseline(&b, remote, baseline); err == nil {
		t.Fatal("remote startups on the relay arm passed the gate")
	}
	weak := append([]experiments.PrefixRow(nil), rows...)
	weak[2].OriginReads = 2000 // 2.6x cut, below the 5x target
	if err := checkPrefixBaseline(&b, weak, baseline); err == nil {
		t.Fatal("collapsed origin-read cut passed the gate")
	}
	fallen := append([]experiments.PrefixRow(nil), rows...)
	fallen[2].RelayFallbacks = 3
	if err := checkPrefixBaseline(&b, fallen, baseline); err == nil {
		t.Fatal("relay fallbacks passed the gate")
	}
}
