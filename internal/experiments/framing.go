package experiments

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/transport"
)

// --- Ext-13: binary vs kernel cluster delivery throughput ---------------------

// FramingStudyConfig parameterizes Ext-13: a live single-node deployment on
// localhost TCP delivers a resident title once per arm at each cluster size,
// measuring end-to-end delivery throughput of binary cluster frames through
// the pooled copy against the kernel delivery path (file-backed disks +
// sendfile; DESIGN.md § "Wire format" and § "The send path"). Each arm gets
// its own deployment so the kernel arm can run a file-backed array while the
// binary arm stays in memory. Content verification is disabled on the player
// so the measurement isolates the delivery pipeline — disk read, framing,
// socket, receive — rather than the synthetic-content checker, which costs
// the same on every arm.
type FramingStudyConfig struct {
	// ClusterSizes are the cluster sizes to sweep, in bytes.
	ClusterSizes []int64
	// TitleClusters is the number of clusters in the delivered title.
	TitleClusters int
	// Runs is how many timed watches are averaged per cell; an extra
	// untimed warmup watch precedes them.
	Runs int
}

// DefaultFramingStudyConfig sweeps the headline sizes (64 KiB, 256 KiB,
// 1 MiB) over a 24-cluster title, averaging 3 timed runs.
func DefaultFramingStudyConfig() FramingStudyConfig {
	return FramingStudyConfig{
		ClusterSizes:  []int64{64 << 10, 256 << 10, 1 << 20},
		TitleClusters: 24,
		Runs:          3,
	}
}

// Framing arm names of FramingRow.Framing.
const (
	// FramingBinary is binary cluster frames through the pooled-buffer copy.
	FramingBinary = "binary"
	// FramingKernel is binary cluster frames from a file-backed array, sent
	// with sendfile(2) where the platform supports it.
	FramingKernel = "kernel"
)

// FramingRow is one (framing, cluster size) outcome.
type FramingRow struct {
	Framing        string // "binary" or "kernel"
	ClusterBytes   int64
	Clusters       int     // clusters delivered per watch
	ElapsedMs      float64 // mean wall time of one watch
	ClustersPerSec float64
	MBps           float64 // delivered payload bytes per second / 1e6
	// KernelSends / FallbackSends split the serving node's cluster sends by
	// the path taken (server.kernel_sends / server.fallback_sends), across
	// the warmup and every timed run. The kernel arm must show KernelSends
	// > 0 on Linux, or the study measured the fallback by mistake.
	KernelSends   int64
	FallbackSends int64
	// Procs is GOMAXPROCS during the run. Cross-framing speedup gates only
	// bind to the degree the runner can demonstrate them (see
	// FramingTiming): on one core, delivered MB/s measures total copies
	// of both directions and the receive side dominates, so the kernel
	// path's sender-side savings cannot show up as wall-clock throughput.
	Procs int
}

// FramingStudy runs Ext-13.
func FramingStudy(cfg FramingStudyConfig) ([]FramingRow, error) {
	if len(cfg.ClusterSizes) == 0 {
		return nil, errors.New("framing study: no cluster sizes")
	}
	if cfg.TitleClusters <= 0 {
		return nil, errors.New("framing study: need a positive title length")
	}
	if cfg.Runs <= 0 {
		return nil, errors.New("framing study: need at least one run")
	}
	var out []FramingRow
	for _, size := range cfg.ClusterSizes {
		if size <= 0 {
			return nil, fmt.Errorf("framing study: bad cluster size %d", size)
		}
		for _, framing := range []string{FramingBinary, FramingKernel} {
			row, err := framingArm(framing, size, cfg.TitleClusters, cfg.Runs)
			if err != nil {
				return nil, fmt.Errorf("framing study %s @%d: %w", framing, size, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// framingArm brings up one live server holding a TitleClusters-long title at
// the given cluster size and measures one framing's delivery against it. The
// kernel arm stores its blocks in a temporary directory so resident clusters
// are served off descriptors; the binary arm uses the in-memory store with
// its kernel path switched off.
func framingArm(framing string, clusterBytes int64, titleClusters, runs int) (FramingRow, error) {
	g, err := grnet.Backbone()
	if err != nil {
		return FramingRow{}, err
	}
	d := db.New(g)
	titleBytes := clusterBytes * int64(titleClusters)
	// Three disks, each sized to hold its share of the stripe with headroom.
	var arr *disk.Array
	if framing == FramingKernel {
		dir, err := os.MkdirTemp("", "dvod-framing-")
		if err != nil {
			return FramingRow{}, err
		}
		defer os.RemoveAll(dir)
		arr, err = disk.NewUniformFileArray("fr", 3, titleBytes, dir)
		if err != nil {
			return FramingRow{}, err
		}
	} else {
		arr, err = disk.NewUniformArray("fr", 3, titleBytes)
		if err != nil {
			return FramingRow{}, err
		}
		// In-memory blocks are tmpfs files on Linux and would take the
		// kernel path too; an armed interceptor makes FileRef refuse, so
		// this arm measures the pooled copy it is named for.
		arr.SetReadInterceptor(func(disk.BlockID) disk.ReadFault { return disk.ReadFault{} })
	}
	dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: clusterBytes})
	if err != nil {
		return FramingRow{}, err
	}
	planner, err := core.NewPlanner(d, core.VRA{}, nil)
	if err != nil {
		return FramingRow{}, err
	}
	book := transport.NewAddrBook()
	srv, err := server.New(server.Config{
		Node:         grnet.Athens,
		DB:           d,
		Planner:      planner,
		Array:        arr,
		Cache:        dma,
		ClusterBytes: clusterBytes,
		Book:         book,
	})
	if err != nil {
		return FramingRow{}, err
	}
	if err := srv.Start(); err != nil {
		return FramingRow{}, err
	}
	defer srv.Close()
	if err := srv.WaitReady(5 * time.Second); err != nil {
		return FramingRow{}, err
	}
	title := media.Title{
		Name:        fmt.Sprintf("fr-%d", clusterBytes),
		SizeBytes:   titleBytes,
		BitrateMbps: 4,
	}
	if err := d.Catalog().AddTitle(title); err != nil {
		return FramingRow{}, err
	}
	if err := srv.Preload(title); err != nil {
		return FramingRow{}, err
	}

	p, err := client.NewPlayer(grnet.Athens, book, client.WithoutVerification())
	if err != nil {
		return FramingRow{}, err
	}
	defer p.Close()
	row := FramingRow{
		Framing:      framing,
		ClusterBytes: clusterBytes,
		Procs:        runtime.GOMAXPROCS(0),
	}
	var elapsed time.Duration
	for run := 0; run < runs+1; run++ {
		stats, err := p.Watch(title.Name)
		if err != nil {
			return FramingRow{}, fmt.Errorf("%s watch: %w", framing, err)
		}
		if run == 0 {
			continue // warmup
		}
		row.Clusters = stats.NumClusters
		elapsed += stats.Elapsed
	}
	snap := srv.Metrics().Snapshot()
	row.KernelSends = snap.Counters["server.kernel_sends"]
	row.FallbackSends = snap.Counters["server.fallback_sends"]
	mean := elapsed / time.Duration(runs)
	row.ElapsedMs = float64(mean) / float64(time.Millisecond)
	if mean > 0 {
		sec := mean.Seconds()
		row.ClustersPerSec = float64(row.Clusters) / sec
		row.MBps = float64(titleBytes) / sec / 1e6
	}
	return row, nil
}

// Ext-13 regression-gate thresholds, read by FramingTiming.
const (
	// FramingKernelSpeedupTarget is the kernel-over-binary delivered-MB/s
	// ratio expected at the largest cluster size on runners with at least
	// FramingSpeedupMinProcs cores: sendfile halves the copies per delivered
	// byte, and with sender and receiver on separate cores the saving is
	// wall-clock.
	FramingKernelSpeedupTarget = 2.0
	// FramingSpeedupMinProcs is the smallest GOMAXPROCS at which the
	// speedup target binds. Below it sender and receiver time-share one
	// core, delivered MB/s measures the copies of BOTH directions, and the
	// receive side (which sendfile cannot touch) dominates — the honest
	// single-core expectation is parity, gated by FramingKernelParityFloor.
	FramingSpeedupMinProcs = 4
	// FramingKernelParityFloor is the kernel/binary MB/s floor on runners
	// below FramingSpeedupMinProcs: the kernel path must never make
	// delivery materially slower than the copy path it replaces. The floor
	// is deliberately loose — single-core virtualized runners show ±25%
	// run-to-run variance on this ratio — because its job is to catch a
	// broken kernel path (stalls, tiny chunking), not to assert a win the
	// topology cannot show.
	FramingKernelParityFloor = 0.5
)

// framingCell keys a framing row by arm and cluster size.
type framingCell struct {
	framing string
	size    int64
}

// framingCells indexes rows by cell and returns the largest cluster size.
func framingCells(rows []FramingRow) (map[framingCell]FramingRow, int64) {
	cells := make(map[framingCell]FramingRow, len(rows))
	var maxSize int64
	for _, r := range rows {
		cells[framingCell{r.Framing, r.ClusterBytes}] = r
		if r.ClusterBytes > maxSize {
			maxSize = r.ClusterBytes
		}
	}
	return cells, maxSize
}

// FramingStructural returns the Ext-13 bounds that hold on any machine:
// every baseline (framing, size) cell must still be measured, kernel rows
// must exist, on Linux the kernel arm must actually take the kernel path
// (KernelSends > 0, or the study silently measured the fallback), and the
// binary arm must never take it (KernelSends == 0, or it measured sendfile
// instead of the copy).
func FramingStructural(current, baseline []FramingRow) (bad []string) {
	if len(current) == 0 {
		return []string{"framing run produced no rows"}
	}
	cur, _ := framingCells(current)
	for _, b := range baseline {
		if _, ok := cur[framingCell{b.Framing, b.ClusterBytes}]; !ok {
			bad = append(bad, fmt.Sprintf(
				"baseline cell %s@%dKiB missing from current run", b.Framing, b.ClusterBytes>>10))
		}
	}
	kernelRows := 0
	for _, r := range current {
		if r.Framing == FramingBinary && r.KernelSends != 0 {
			bad = append(bad, fmt.Sprintf(
				"binary arm @%dKiB made %d kernel sends: the study measured sendfile, not the copy",
				r.ClusterBytes>>10, r.KernelSends))
		}
		if r.Framing != FramingKernel {
			continue
		}
		kernelRows++
		if runtime.GOOS == "linux" && r.KernelSends == 0 {
			bad = append(bad, fmt.Sprintf(
				"kernel arm @%dKiB took zero kernel sends on linux (%d fallbacks): the study measured the fallback",
				r.ClusterBytes>>10, r.FallbackSends))
		}
	}
	if kernelRows == 0 {
		bad = append(bad, "current run has no kernel framing rows")
	}
	return bad
}

// FramingTiming returns Ext-13's wall-clock bound, which is proc-aware like
// ContentionTiming: at FramingSpeedupMinProcs and above, the kernel arm
// must reach FramingKernelSpeedupTarget× the binary arm's MB/s at the
// largest cluster size; below that the target cannot physically manifest,
// so the gate prints a loud warning through the returned notes channel and
// demands only FramingKernelParityFloor× parity. The bound reads the current
// run alone: a single-core baseline is never used to tighten it.
func FramingTiming(current, _ []FramingRow) (bad, notes []string) {
	cur, maxSize := framingCells(current)
	k, kok := cur[framingCell{FramingKernel, maxSize}]
	b, bok := cur[framingCell{FramingBinary, maxSize}]
	if kok && bok && b.MBps > 0 {
		ratio := k.MBps / b.MBps
		switch {
		case k.Procs >= FramingSpeedupMinProcs:
			if ratio < FramingKernelSpeedupTarget {
				bad = append(bad, fmt.Sprintf(
					"kernel/binary MB/s at %dKiB is %.2fx, want ≥ %.1fx at GOMAXPROCS %d",
					maxSize>>10, ratio, FramingKernelSpeedupTarget, k.Procs))
			}
		default:
			notes = append(notes, fmt.Sprintf(
				"WARNING: framing study ran at GOMAXPROCS %d (< %d): the %.1fx kernel speedup target "+
					"cannot manifest when sender and receiver time-share cores, so it is NOT enforced; "+
					"holding the kernel arm to ≥ %.2fx of binary instead. Regenerate the gate on a "+
					"multi-core runner to enforce the real target.",
				k.Procs, FramingSpeedupMinProcs, FramingKernelSpeedupTarget, FramingKernelParityFloor))
			if ratio < FramingKernelParityFloor {
				bad = append(bad, fmt.Sprintf(
					"kernel/binary MB/s at %dKiB is %.2fx, below the single-core parity floor %.2fx",
					maxSize>>10, ratio, FramingKernelParityFloor))
			}
		}
	}
	return bad, notes
}

// FormatFramingStudy renders Ext-13, appending each kernel row's speedup
// over the binary row at the same cluster size and the kernel/fallback send
// split.
func FormatFramingStudy(rows []FramingRow) string {
	binaryPerSec := make(map[int64]float64)
	for _, r := range rows {
		if r.Framing == FramingBinary {
			binaryPerSec[r.ClusterBytes] = r.ClustersPerSec
		}
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "ClusterKiB\tFraming\tClusters\tElapsedMs\tClusters/s\tMB/s\tSpeedup\tKernel\tFallback")
	for _, r := range rows {
		speedup := "-"
		if base := binaryPerSec[r.ClusterBytes]; r.Framing == FramingKernel && base > 0 {
			speedup = fmt.Sprintf("%.2fx", r.ClustersPerSec/base)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%.2f\t%.0f\t%.1f\t%s\t%d\t%d\n",
			r.ClusterBytes>>10, r.Framing, r.Clusters, r.ElapsedMs,
			r.ClustersPerSec, r.MBps, speedup, r.KernelSends, r.FallbackSends)
	}
	_ = w.Flush()
	return b.String()
}
