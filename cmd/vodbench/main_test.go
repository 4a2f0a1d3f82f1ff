package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvod/internal/experiments"
)

// flags returns vodbench's options for one study with a short routing trace.
func flags(study string) options {
	return options{
		StudyOptions: experiments.StudyOptions{Seed: 1, Duration: time.Minute, RatePerSec: 0.01, ClassMix: "premium:1"},
		study:        study,
	}
}

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
		if err := run(&b, flags(tc.study)); err != nil {
			t.Fatalf("run(%s): %v", tc.study, err)
		}
		if !strings.Contains(b.String(), tc.want) {
			t.Errorf("run(%s) missing %q:\n%s", tc.study, tc.want, b.String())
		}
	}
}

func TestRunRoutingStudyShortTrace(t *testing.T) {
	var b strings.Builder
	o := flags("routing")
	o.Duration = 15 * time.Minute
	if err := run(&b, o); err != nil {
		t.Fatalf("run(routing): %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "vra") || !strings.Contains(out, "minhop") {
		t.Fatalf("routing output:\n%s", out)
	}
}

func TestRunUnknownStudy(t *testing.T) {
	var b strings.Builder
	err := run(&b, flags("bogus"))
	if err == nil {
		t.Fatal("unknown study accepted")
	}
	if !strings.Contains(err.Error(), "routing, cache,") || !strings.Contains(err.Error(), "prefix, or all") {
		t.Fatalf("error does not list the valid studies: %v", err)
	}
}

// TestRunChurnBaselineRoundTrip drives -out and -baseline on the churn study: a
// written baseline gates the next run, and every misuse is an error — the
// flags on a study with no gate, a missing file, a report written by another
// study, and a report with no rows.
func TestRunChurnBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	churn := flags("churn")
	churn.Seed = 7
	churn.outDir = dir
	var b strings.Builder
	if err := run(&b, churn); err != nil {
		t.Fatalf("churn -out: %v", err)
	}
	churn.outDir, churn.baselineDir = "", dir
	if err := run(&b, churn); err != nil {
		t.Fatalf("churn -baseline against its own report: %v", err)
	}
	if !strings.Contains(b.String(), "churn baseline check passed") {
		t.Fatalf("passing gate printed no verdict:\n%s", b.String())
	}

	ungated := flags("k")
	ungated.baselineDir = dir
	if err := run(&b, ungated); err == nil || !strings.Contains(err.Error(), "no gate") {
		t.Errorf("-baseline on an ungated study: %v, want a no-gate error", err)
	}
	ungated.baselineDir, ungated.outDir = "", dir
	if err := run(&b, ungated); err == nil || !strings.Contains(err.Error(), "no gate") {
		t.Errorf("-out on an ungated study: %v, want a no-gate error", err)
	}

	missing := churn
	missing.baselineDir = t.TempDir()
	if err := run(&b, missing); err == nil {
		t.Error("missing BENCH_churn.json accepted")
	}

	path := filepath.Join(dir, "BENCH_churn.json")
	for _, tc := range []struct{ report, want string }{
		{`{"study":"ledger","rows":[{"Phase":"steady"}]}`, `written by study "ledger"`},
		{`{"study":"churn","rows":[]}`, "empty rows list"},
	} {
		if err := os.WriteFile(path, []byte(tc.report), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(&b, churn); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("baseline %s: %v, want a %q error", tc.report, err, tc.want)
		}
	}
}
