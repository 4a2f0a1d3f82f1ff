package experiments

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
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
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// --- Ext-14: shared-prefix stream merging ------------------------------------

// MergeStudyConfig parameterizes Ext-14: a relay home server (nothing fits
// its cache) delivers titles held by a remote origin to a burst of concurrent
// watchers, once with stream merging off (the paper's unicast delivery) and
// once with it on. Two request patterns run: "hot", every watcher on one
// title — the canonical flash crowd — and "zipf", watchers drawn from a
// Zipf-popular catalog. The origin's disk reads and bytes are the shared
// cost the tentpole claims to collapse; per-client throughput checks that the
// saving is not bought with slower delivery.
type MergeStudyConfig struct {
	// Watchers is the number of concurrent watch sessions per cell.
	Watchers int
	// Titles is the catalog size for the Zipf pattern.
	Titles int
	// TitleClusters is the length of every title, in clusters.
	TitleClusters int
	// ClusterBytes is the delivery cluster size.
	ClusterBytes int64
	// ZipfS is the Zipf skew parameter (> 1).
	ZipfS float64
	// Seed fixes the Zipf draw so merged and unicast cells replay the same
	// trace.
	Seed int64
	// Window is the merge window, in clusters, for the merged cells.
	Window int
}

// DefaultMergeStudyConfig: 12 concurrent watchers, a 4-title catalog of
// 1 MiB titles at 1 KiB clusters, skew 1.2, and a whole-title merge window.
func DefaultMergeStudyConfig() MergeStudyConfig {
	return MergeStudyConfig{
		Watchers:      12,
		Titles:        4,
		TitleClusters: 1024,
		ClusterBytes:  1 << 10,
		ZipfS:         1.2,
		Seed:          1,
		Window:        1024,
	}
}

// MergeRow is one (pattern, delivery mode) outcome.
type MergeRow struct {
	Pattern     string // "hot" or "zipf"
	Mode        string // "unicast" or "merged"
	Watchers    int
	Clusters    int     // clusters per title
	OriginReads int64   // origin disk reads serving the whole burst
	UpstreamMB  float64 // origin bytes read = upstream transfer volume
	Cohorts     int64   // merge cohorts opened (0 for unicast)
	Merged      int64   // sessions that attached to an existing cohort
	MeanMBps    float64 // mean per-client delivered throughput
}

// MergeStudy runs Ext-14.
func MergeStudy(cfg MergeStudyConfig) ([]MergeRow, error) {
	switch {
	case cfg.Watchers <= 0:
		return nil, errors.New("merge study: need watchers")
	case cfg.Titles <= 0:
		return nil, errors.New("merge study: need titles")
	case cfg.TitleClusters <= 0 || cfg.ClusterBytes <= 0:
		return nil, errors.New("merge study: bad title geometry")
	case cfg.ZipfS <= 1:
		return nil, fmt.Errorf("merge study: zipf skew %v must exceed 1", cfg.ZipfS)
	case cfg.Window <= 0:
		return nil, errors.New("merge study: need a positive merge window")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Titles-1))
	zipfDraws := make([]int, cfg.Watchers)
	for i := range zipfDraws {
		zipfDraws[i] = int(zipf.Uint64())
	}
	patterns := []struct {
		name  string
		draws []int
	}{
		{"hot", make([]int, cfg.Watchers)}, // all zero: one hot title
		{"zipf", zipfDraws},
	}
	var out []MergeRow
	for _, pat := range patterns {
		for _, window := range []int{0, cfg.Window} {
			row, err := mergeCell(cfg, window, pat.name, pat.draws)
			if err != nil {
				return nil, fmt.Errorf("merge study %s/%s: %w", pat.name, row.Mode, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// mergeCell replays one burst of concurrent watches against a fresh
// two-node deployment: Athens relays (its array holds one cluster, so
// nothing is ever resident) from the Heraklio origin over the wide 18 Mbps
// link. window == 0 disables merging.
func mergeCell(cfg MergeStudyConfig, window int, pattern string, draws []int) (MergeRow, error) {
	row := MergeRow{
		Pattern:  pattern,
		Mode:     "unicast",
		Watchers: cfg.Watchers,
		Clusters: cfg.TitleClusters,
	}
	if window > 0 {
		row.Mode = "merged"
	}
	g, err := grnet.Backbone()
	if err != nil {
		return row, err
	}
	d := db.New(g)
	t0 := time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)
	for _, r := range grnet.Table2() {
		id := topology.MakeLinkID(r.A, r.B)
		if err := d.UpsertLinkStats(id, r.TrafficMbps[0], t0); err != nil {
			return row, err
		}
	}
	book := transport.NewAddrBook()
	titleBytes := cfg.ClusterBytes * int64(cfg.TitleClusters)
	// The origin stripes every title over three disks.
	originDiskCap := 2 * titleBytes * int64(cfg.Titles) / 3
	newNode := func(node topology.NodeID, capBytes int64, window int) (*server.Server, error) {
		arr, err := disk.NewUniformArray(string(node), 3, capBytes)
		if err != nil {
			return nil, err
		}
		dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: cfg.ClusterBytes})
		if err != nil {
			return nil, err
		}
		planner, err := core.NewPlanner(d, core.VRA{}, nil)
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{
			Node:         node,
			DB:           d,
			Planner:      planner,
			Array:        arr,
			Cache:        dma,
			ClusterBytes: cfg.ClusterBytes,
			Book:         book,
			MergeWindow:  window,
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		return srv, srv.WaitReady(5 * time.Second)
	}
	origin, err := newNode(grnet.Heraklio, originDiskCap, 0)
	if err != nil {
		return row, err
	}
	defer origin.Close()
	home, err := newNode(grnet.Athens, cfg.ClusterBytes, window)
	if err != nil {
		return row, err
	}
	defer home.Close()

	titles := make([]media.Title, cfg.Titles)
	for i := range titles {
		titles[i] = media.Title{
			Name:        fmt.Sprintf("m14-%d", i),
			SizeBytes:   titleBytes,
			BitrateMbps: 1.5,
		}
		if err := d.Catalog().AddTitle(titles[i]); err != nil {
			return row, err
		}
		if err := origin.Preload(titles[i]); err != nil {
			return row, err
		}
	}

	var wg sync.WaitGroup
	gate := make(chan struct{})
	throughput := make([]float64, cfg.Watchers)
	errs := make([]error, cfg.Watchers)
	for i := 0; i < cfg.Watchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := client.NewPlayer(grnet.Athens, book, client.WithoutVerification())
			if err != nil {
				errs[i] = err
				return
			}
			defer p.Close()
			<-gate
			stats, err := p.Watch(titles[draws[i]].Name)
			if err != nil {
				errs[i] = err
				return
			}
			if sec := stats.Elapsed.Seconds(); sec > 0 {
				throughput[i] = float64(stats.BytesReceived) / sec / 1e6
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}
	var sum float64
	for _, mbps := range throughput {
		sum += mbps
	}
	row.MeanMBps = sum / float64(cfg.Watchers)
	snap := origin.Metrics().Snapshot()
	row.OriginReads = snap.Counters["server.disk_reads"]
	row.UpstreamMB = float64(snap.Counters["server.disk_bytes"]) / 1e6
	hs := home.Metrics().Snapshot()
	row.Cohorts = hs.Counters["merge.cohorts_total"]
	row.Merged = hs.Counters["merge.sessions_merged"]
	return row, nil
}

// MergeSavings pairs each pattern's unicast and merged rows and returns the
// origin-read reduction factor per pattern (unicast reads / merged reads).
func MergeSavings(rows []MergeRow) map[string]float64 {
	unicast := make(map[string]int64)
	for _, r := range rows {
		if r.Mode == "unicast" {
			unicast[r.Pattern] = r.OriginReads
		}
	}
	out := make(map[string]float64)
	for _, r := range rows {
		if r.Mode == "merged" && r.OriginReads > 0 && unicast[r.Pattern] > 0 {
			out[r.Pattern] = float64(unicast[r.Pattern]) / float64(r.OriginReads)
		}
	}
	return out
}

// MergeStructural returns the Ext-14 bounds that hold on any machine: the
// baseline records savings, every baseline pattern is still measured, and
// its merged arm merged at least one session into a cohort.
func MergeStructural(current, baseline []MergeRow) []string {
	want := MergeSavings(baseline)
	if len(want) == 0 {
		return []string{"merge baseline holds no savings to compare"}
	}
	merged := make(map[string]MergeRow)
	for _, r := range current {
		if r.Mode == "merged" {
			merged[r.Pattern] = r
		}
	}
	var bad []string
	for _, pattern := range slices.Sorted(maps.Keys(want)) {
		r, ok := merged[pattern]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("pattern %q missing from current run", pattern))
		case r.Merged == 0:
			bad = append(bad, fmt.Sprintf("%s: no session merged into a cohort", pattern))
		}
	}
	return bad
}

// MergeTiming returns Ext-14's speed-dependent bound: each pattern's
// origin-read saving stays within 20% of the baseline's. How many watchers
// overlap inside the merge window depends on the machine's speed. It has no
// notes.
func MergeTiming(current, baseline []MergeRow) (bad, notes []string) {
	want := MergeSavings(baseline)
	got := MergeSavings(current)
	for _, pattern := range slices.Sorted(maps.Keys(want)) {
		current, ok := got[pattern]
		if ok && current < 0.8*want[pattern] {
			bad = append(bad, fmt.Sprintf("%s origin-read saving %.2fx fell >20%% below baseline %.2fx",
				pattern, current, want[pattern]))
		}
	}
	return bad, nil
}

// FormatMergeStudy renders Ext-14, appending each merged row's origin-read
// saving over the unicast row of the same pattern.
func FormatMergeStudy(rows []MergeRow) string {
	savings := MergeSavings(rows)
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Pattern\tMode\tWatchers\tOriginReads\tUpstreamMB\tCohorts\tMergedSessions\tClientMB/s\tReadSaving")
	for _, r := range rows {
		saving := "-"
		if r.Mode == "merged" {
			if s, ok := savings[r.Pattern]; ok {
				saving = fmt.Sprintf("%.2fx", s)
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%d\t%d\t%.1f\t%s\n",
			r.Pattern, r.Mode, r.Watchers, r.OriginReads, r.UpstreamMB,
			r.Cohorts, r.Merged, r.MeanMBps, saving)
	}
	_ = w.Flush()
	return b.String()
}
