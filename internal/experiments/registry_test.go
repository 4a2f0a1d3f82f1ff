package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// regression applies the named study's registered gate to typed rows —
// structural bounds, then timing bounds — as vodbench -baseline does.
func regression[R any](t *testing.T, name string, current, baseline []R) (bad, notes []string) {
	t.Helper()
	for _, s := range Studies(StudyOptions{}) {
		if s.Name == name {
			return s.Gate.(gate[R]).bounds(current, baseline)
		}
	}
	t.Fatalf("no study %q", name)
	return nil, nil
}

// TestStudiesRegistry pins the registry's order and its gated set: Ext-1 to
// Ext-20 in order, unique names, and a gate on exactly the eight studies
// that commit a BENCH_<study>.json.
func TestStudiesRegistry(t *testing.T) {
	var names, gatedNames []string
	for i, s := range Studies(StudyOptions{}) {
		if want := "Ext-" + strconv.Itoa(i+1) + ". "; !strings.HasPrefix(s.Header, want) {
			t.Errorf("study %d (%s) header %q, want prefix %q", i, s.Name, s.Header, want)
		}
		if slices.Contains(names, s.Name) {
			t.Errorf("study name %q registered twice", s.Name)
		}
		names = append(names, s.Name)
		if s.Gate != nil {
			gatedNames = append(gatedNames, s.Name)
		}
	}
	if len(names) != 20 {
		t.Fatalf("%d studies registered, want 20", len(names))
	}
	want := []string{"framing", "merge", "chaos", "ledger", "churn", "contention", "membership", "prefix"}
	if !slices.Equal(gatedNames, want) {
		t.Fatalf("gated studies %v, want %v", gatedNames, want)
	}
}
