package experiments

import (
	"runtime"
	"strings"
	"testing"
)

func TestFramingStudyShape(t *testing.T) {
	cfg := FramingStudyConfig{
		ClusterSizes:  []int64{16 << 10, 64 << 10},
		TitleClusters: 4,
		Runs:          1,
	}
	rows, err := FramingStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.ClusterSizes)*2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.ClusterSizes)*2)
	}
	for _, r := range rows {
		if r.Framing != FramingBinary && r.Framing != FramingKernel {
			t.Fatalf("framing = %q", r.Framing)
		}
		if r.Clusters != cfg.TitleClusters {
			t.Fatalf("%s@%d delivered %d clusters, want %d",
				r.Framing, r.ClusterBytes, r.Clusters, cfg.TitleClusters)
		}
		if r.ClustersPerSec <= 0 || r.MBps <= 0 || r.ElapsedMs <= 0 {
			t.Fatalf("non-positive throughput row: %+v", r)
		}
		if r.Procs != runtime.GOMAXPROCS(0) {
			t.Fatalf("row records procs %d, runtime says %d", r.Procs, runtime.GOMAXPROCS(0))
		}
		switch r.Framing {
		case FramingKernel:
			if runtime.GOOS == "linux" && r.KernelSends == 0 {
				t.Fatalf("kernel arm made zero kernel sends on linux: %+v", r)
			}
		default:
			if r.KernelSends != 0 {
				t.Fatalf("%s arm counted kernel sends: %+v", r.Framing, r)
			}
		}
	}
	if s := FormatFramingStudy(rows); s == "" {
		t.Fatal("empty format")
	}
}

func TestFramingStudyValidation(t *testing.T) {
	bad := []FramingStudyConfig{
		{},
		{ClusterSizes: []int64{1024}},
		{ClusterSizes: []int64{1024}, TitleClusters: 2},
		{ClusterSizes: []int64{0}, TitleClusters: 2, Runs: 1},
	}
	for i, cfg := range bad {
		if _, err := FramingStudy(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// framingFixture builds a consistent two-arm run at the given procs and
// kernel/binary throughput ratio.
func framingFixture(procs int, ratio float64) []FramingRow {
	size := int64(1 << 20)
	rows := []FramingRow{
		{Framing: FramingBinary, ClusterBytes: size, MBps: 1000, Procs: procs},
		{Framing: FramingKernel, ClusterBytes: size, MBps: 1000 * ratio, Procs: procs, KernelSends: 96},
	}
	return rows
}

func TestFramingRegressionGates(t *testing.T) {
	base := framingFixture(1, 0.9)

	// Healthy single-core run: parity floor holds, warning is loud, no
	// violations.
	bad, notes := regression(t, "framing", framingFixture(1, 0.9), base)
	if len(bad) != 0 {
		t.Fatalf("healthy single-core run flagged: %v", bad)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "WARNING") {
		t.Fatalf("single-core run must carry a loud warning, got %v", notes)
	}

	// Single-core run below the parity floor fails.
	if bad, _ := regression(t, "framing", framingFixture(1, 0.4), base); len(bad) == 0 {
		t.Fatal("kernel at 0.4x binary passed the single-core parity floor")
	}

	// Multi-core runs enforce the full speedup target, without a warning.
	bad, notes = regression(t, "framing", framingFixture(8, 2.4), base)
	if len(bad) != 0 || len(notes) != 0 {
		t.Fatalf("healthy multi-core run: bad=%v notes=%v", bad, notes)
	}
	if bad, _ := regression(t, "framing", framingFixture(8, 1.5), base); len(bad) == 0 {
		t.Fatal("kernel at 1.5x binary passed the multi-core 2x gate")
	}
	// The speedup is the timing half's alone: the structural half passes it.
	if bad := FramingStructural(framingFixture(8, 1.5), base); len(bad) != 0 {
		t.Fatalf("structural gate judged a throughput ratio: %v", bad)
	}

	// A kernel row with zero kernel sends on linux is the study measuring
	// the wrong path.
	if runtime.GOOS == "linux" {
		broken := framingFixture(1, 0.9)
		broken[1].KernelSends = 0
		if bad, _ := regression(t, "framing", broken, base); len(bad) == 0 {
			t.Fatal("zero kernel sends passed")
		}
	}

	// A binary row with kernel sends measured sendfile instead of the copy.
	sent := framingFixture(1, 0.9)
	sent[0].KernelSends = 96
	if bad := FramingStructural(sent, base); len(bad) == 0 {
		t.Fatal("kernel sends on the binary arm passed")
	}

	// Baseline cells must stay measured.
	missing := framingFixture(1, 0.9)[:1] // kernel row dropped
	if bad, _ := regression(t, "framing", missing, base); len(bad) == 0 {
		t.Fatal("missing kernel rows passed")
	}
	// A baseline promising a framing arm the run does not measure fails.
	promised := append(framingFixture(1, 0.9), FramingRow{Framing: "quic", ClusterBytes: 64 << 10, MBps: 1})
	if bad := FramingStructural(framingFixture(1, 0.9), promised); len(bad) != 1 || !strings.Contains(bad[0], "quic@64KiB missing") {
		t.Fatalf("baseline with an unmeasured quic cell: %v, want one missing-cell message", bad)
	}
	if bad, _ := regression(t, "framing", nil, base); len(bad) == 0 {
		t.Fatal("empty run passed")
	}
}
