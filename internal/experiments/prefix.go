package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"dvod"
	"dvod/internal/client"
	"dvod/internal/grnet"
)

// --- Ext-20: prefix replication tier under a flash crowd ----------------------

// PrefixStudyConfig parameterizes Ext-20: a flash crowd at ten times the
// Ext-14 scale — Watchers concurrent sessions of one hot title, spread across
// Relays relay servers whose arrays hold a single cluster (nothing is ever
// DMA-resident), all pulling from one origin. Three arms replay the identical
// burst:
//
//	baseline      stream merging on (the Ext-14 winner), no prefix tier:
//	              every relay's cohort fetches every cluster from the origin
//	              and every session's first cluster costs a network round trip
//	prefix        + a prefix tier: each relay pins the title's first
//	              PrefixClusters locally, so startup is a local disk read and
//	              the origin serves only tails
//	prefix+relay  + cross-server cohort relays: each relay's cohort opens ONE
//	              relay.join subscription upstream, and the origin merges
//	              those subscriptions in its own cohort — five relay servers
//	              cost the origin roughly one disk-read stream of the tail
//
// The headline numbers are startup latency (P99 across the crowd) and origin
// disk reads per second; the structural claims — zero cross-network fetches
// for pinned heads, one shared upstream per cohort — are counted exactly.
type PrefixStudyConfig struct {
	// Watchers is the total concurrent sessions per arm.
	Watchers int
	// Relays is how many relay servers the crowd is spread over (Heraklio is
	// always the origin; the relays are the remaining GRNET sites).
	Relays int
	// TitleClusters is the hot title's length in clusters.
	TitleClusters int
	// ClusterBytes is the delivery cluster size.
	ClusterBytes int64
	// PrefixClusters is K: how many leading clusters each relay pins (the
	// prefix budget is exactly PrefixClusters × ClusterBytes).
	PrefixClusters int
	// Window is the merge window, in clusters, for every arm.
	Window int
}

// DefaultPrefixStudyConfig: 120 watchers (10× Ext-14) over 5 relays, a
// 1024-cluster title at 1 KiB clusters, half the title pinned.
func DefaultPrefixStudyConfig() PrefixStudyConfig {
	return PrefixStudyConfig{
		Watchers:       120,
		Relays:         5,
		TitleClusters:  1024,
		ClusterBytes:   1 << 10,
		PrefixClusters: 512,
		Window:         1024,
	}
}

// Prefix study arm names of PrefixRow.Arm.
const (
	// PrefixArmBaseline is stream merging without a prefix tier.
	PrefixArmBaseline = "baseline"
	// PrefixArmPrefix adds the prefix tier.
	PrefixArmPrefix = "prefix"
	// PrefixArmRelay adds cross-server cohort relays on top of the prefix.
	PrefixArmRelay = "prefix+relay"
)

// PrefixRow is one arm's outcome.
type PrefixRow struct {
	Arm      string
	Watchers int
	Relays   int
	Clusters int // clusters per title
	PrefixK  int // pinned prefix length (0 for baseline)
	// OriginReads is the origin's disk reads serving the whole burst;
	// OriginReadsPerSec divides by the burst's wall time.
	OriginReads       int64
	OriginReadsPerSec float64
	// StartupP99Ms / StartupMeanMs summarize time-to-first-cluster across the
	// crowd.
	StartupP99Ms  float64
	StartupMeanMs float64
	// StartupRemoteFetches sums the servers' announced StartupRTTs: how many
	// sessions' first cluster crossed the network. The prefix arms must show
	// zero — that is the tier's whole claim.
	StartupRemoteFetches int64
	// PrefixServed sums the relays' prefix-store reads (server.prefix_reads).
	PrefixServed int64
	// RelayUpstreams / RelayFallbacks count upstream relay.join subscriptions
	// opened and upstream failures that fell back to per-cluster fetches.
	RelayUpstreams int64
	RelayFallbacks int64
	// Procs is GOMAXPROCS during the run; the startup-latency gate only binds
	// where the runner can demonstrate it (see PrefixTiming).
	Procs int
}

// PrefixStudy runs Ext-20.
func PrefixStudy(cfg PrefixStudyConfig) ([]PrefixRow, error) {
	switch {
	case cfg.Watchers <= 0:
		return nil, errors.New("prefix study: need watchers")
	case cfg.Relays <= 0 || cfg.Relays > len(grnet.Nodes())-1:
		return nil, fmt.Errorf("prefix study: relays %d outside [1, %d]", cfg.Relays, len(grnet.Nodes())-1)
	case cfg.TitleClusters <= 0 || cfg.ClusterBytes <= 0:
		return nil, errors.New("prefix study: bad title geometry")
	case cfg.PrefixClusters <= 0 || cfg.PrefixClusters > cfg.TitleClusters:
		return nil, fmt.Errorf("prefix study: prefix length %d outside (0, %d]", cfg.PrefixClusters, cfg.TitleClusters)
	case cfg.Window <= 0:
		return nil, errors.New("prefix study: need a positive merge window")
	}
	var out []PrefixRow
	for _, arm := range []string{PrefixArmBaseline, PrefixArmPrefix, PrefixArmRelay} {
		row, err := prefixArm(cfg, arm)
		if err != nil {
			return nil, fmt.Errorf("prefix study %s: %w", arm, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// prefixArm replays the flash crowd against a fresh GRNET deployment through
// the dvod facade: Heraklio is the origin (its array holds the title), every
// relay's array holds one cluster so the title is never DMA-resident there.
func prefixArm(cfg PrefixStudyConfig, arm string) (PrefixRow, error) {
	row := PrefixRow{
		Arm:      arm,
		Watchers: cfg.Watchers,
		Relays:   cfg.Relays,
		Clusters: cfg.TitleClusters,
		Procs:    runtime.GOMAXPROCS(0),
	}
	titleBytes := cfg.ClusterBytes * int64(cfg.TitleClusters)
	relays := make([]dvod.NodeID, 0, cfg.Relays)
	for _, n := range grnet.Nodes() {
		if n != grnet.Heraklio && len(relays) < cfg.Relays {
			relays = append(relays, n)
		}
	}
	opts := []dvod.Option{
		dvod.WithClusterBytes(cfg.ClusterBytes),
		dvod.WithNodeDisks(grnet.Heraklio, 3, titleBytes),
		dvod.WithMergeWindow(cfg.Window),
	}
	for _, n := range relays {
		opts = append(opts, dvod.WithNodeDisks(n, 1, cfg.ClusterBytes))
	}
	if arm != PrefixArmBaseline {
		row.PrefixK = cfg.PrefixClusters
		opts = append(opts, dvod.WithPrefixBudget(int64(cfg.PrefixClusters)*cfg.ClusterBytes))
	} else {
		// The baseline arm carries a one-byte prefix budget: it rounds down to
		// a zero-cluster knapsack, so nothing is ever pinned and delivery is
		// byte-identical to no tier at all — but the servers still announce
		// per-session startup accounting, which is how the control arm proves
		// it pays one remote round trip per session.
		opts = append(opts, dvod.WithPrefixBudget(1))
	}
	if arm == PrefixArmRelay {
		opts = append(opts, dvod.WithCohortRelay())
	}
	svc, err := dvod.New(dvod.GRNETTopology(), opts...)
	if err != nil {
		return row, err
	}
	defer svc.Close()
	if err := svc.Start(); err != nil {
		return row, err
	}
	title := dvod.Title{Name: "p20-hot", SizeBytes: titleBytes, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		return row, err
	}
	if err := svc.Preload(grnet.Heraklio, title.Name); err != nil {
		return row, err
	}
	if arm != PrefixArmBaseline {
		// One explicit epoch pins the prefixes before the crowd arrives; with
		// a single hot title the knapsack spends the whole budget on its head.
		if err := svc.PrefixResolve(); err != nil {
			return row, err
		}
		for _, n := range relays {
			if k := svc.PrefixClusters(n, title.Name); k != cfg.PrefixClusters {
				return row, fmt.Errorf("relay %s pinned %d clusters, want %d", n, k, cfg.PrefixClusters)
			}
		}
	}
	baseReads := svc.Metrics()[grnet.Heraklio].Counters["server.disk_reads"]

	var wg sync.WaitGroup
	gate := make(chan struct{})
	stats := make([]client.PlaybackStats, cfg.Watchers)
	errs := make([]error, cfg.Watchers)
	for i := 0; i < cfg.Watchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := svc.Player(relays[i%len(relays)], client.WithoutVerification())
			if err != nil {
				errs[i] = err
				return
			}
			defer p.Close()
			<-gate
			stats[i], errs[i] = p.Watch(title.Name)
		}(i)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}

	startups := make([]float64, cfg.Watchers)
	var meanSum float64
	for i, s := range stats {
		ms := float64(s.StartupDelay) / float64(time.Millisecond)
		startups[i] = ms
		meanSum += ms
		row.StartupRemoteFetches += int64(s.StartupRTTs)
	}
	sort.Float64s(startups)
	row.StartupP99Ms = percentileFloat(startups, 0.99)
	row.StartupMeanMs = meanSum / float64(cfg.Watchers)
	row.OriginReads = svc.Metrics()[grnet.Heraklio].Counters["server.disk_reads"] - baseReads
	if sec := elapsed.Seconds(); sec > 0 {
		row.OriginReadsPerSec = float64(row.OriginReads) / sec
	}
	for _, n := range relays {
		snap := svc.Metrics()[n]
		row.PrefixServed += snap.Counters["server.prefix_reads"]
		row.RelayUpstreams += snap.Counters["server.relay_upstreams"]
		row.RelayFallbacks += snap.Counters["server.relay_fallbacks"]
	}
	return row, nil
}

// percentileFloat returns the p-quantile (0..1) of sorted values by
// nearest-rank.
func percentileFloat(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Ext-20 regression-gate thresholds, read by PrefixStructural and PrefixTiming.
const (
	// PrefixOriginReadCutTarget is the minimum origin-read reduction the
	// prefix+relay arm must show over the baseline arm of the SAME run: five
	// relay cohorts sharing one upstream tail stream land near 10× in theory,
	// so 5× leaves room for cohort churn. The ratio is structural (reads per
	// burst), not wall-clock, so it binds on every machine.
	PrefixOriginReadCutTarget = 5.0
	// PrefixStartupSpeedupMinProcs is the smallest GOMAXPROCS at which the
	// startup-latency halving binds. Below it the 120-goroutine crowd
	// time-shares one core and time-to-first-cluster measures scheduler
	// queueing, not delivery, so only the loose parity bound applies.
	PrefixStartupSpeedupMinProcs = 4
	// PrefixStartupCutTarget: at PrefixStartupSpeedupMinProcs and above, the
	// prefix+relay arm's startup P99 must be at most half the baseline's —
	// a local disk read replacing a remote round trip.
	PrefixStartupCutTarget = 2.0
)

// prefixArms indexes rows by arm.
func prefixArms(rows []PrefixRow) map[string]PrefixRow {
	arms := make(map[string]PrefixRow, len(rows))
	for _, r := range rows {
		arms[r.Arm] = r
	}
	return arms
}

// PrefixStructural returns the Ext-20 bounds that hold on any machine: all
// three arms present; the prefix arms report zero startup remote fetches
// (instant start is served from local disk, full stop) while the baseline
// arm pays one per session; the prefix store actually served clusters; the
// relay arm opened upstream subscriptions and never fell back; and the relay
// arm's origin reads are at least PrefixOriginReadCutTarget× below the same
// run's baseline arm, and within 20% of the committed baseline's cut.
func PrefixStructural(current, baseline []PrefixRow) (bad []string) {
	if len(current) == 0 {
		return []string{"prefix run produced no rows"}
	}
	cur := prefixArms(current)
	for _, arm := range []string{PrefixArmBaseline, PrefixArmPrefix, PrefixArmRelay} {
		if _, ok := cur[arm]; !ok {
			bad = append(bad, fmt.Sprintf("arm %q missing from current run", arm))
		}
	}
	if len(bad) > 0 {
		return bad
	}
	base := cur[PrefixArmBaseline]
	if base.StartupRemoteFetches < int64(base.Watchers) {
		bad = append(bad, fmt.Sprintf(
			"baseline arm announced %d startup remote fetches for %d watchers: the control arm is not paying the cost the tier removes",
			base.StartupRemoteFetches, base.Watchers))
	}
	for _, arm := range []string{PrefixArmPrefix, PrefixArmRelay} {
		r := cur[arm]
		if r.StartupRemoteFetches != 0 {
			bad = append(bad, fmt.Sprintf(
				"%s arm announced %d startup remote fetches, want 0: first clusters must come off local disk", arm, r.StartupRemoteFetches))
		}
		if r.PrefixServed == 0 {
			bad = append(bad, fmt.Sprintf("%s arm served zero clusters from the prefix store", arm))
		}
	}
	relay := cur[PrefixArmRelay]
	if relay.RelayUpstreams == 0 {
		bad = append(bad, "prefix+relay arm opened zero upstream relay subscriptions")
	}
	if relay.RelayFallbacks != 0 {
		bad = append(bad, fmt.Sprintf(
			"prefix+relay arm fell back to per-cluster fetches %d times on a healthy origin", relay.RelayFallbacks))
	}
	if relay.OriginReads > 0 && base.OriginReads > 0 {
		cut := float64(base.OriginReads) / float64(relay.OriginReads)
		if cut < PrefixOriginReadCutTarget {
			bad = append(bad, fmt.Sprintf(
				"prefix+relay origin-read cut %.2fx below the %.0fx target (baseline %d reads, relay %d)",
				cut, PrefixOriginReadCutTarget, base.OriginReads, relay.OriginReads))
		}
		if bc := prefixBaselineCut(baseline); bc > 0 && cut < 0.8*bc {
			bad = append(bad, fmt.Sprintf(
				"prefix+relay origin-read cut %.2fx fell >20%% below the committed baseline's %.2fx", cut, bc))
		}
	} else if relay.OriginReads == 0 && base.OriginReads == 0 {
		bad = append(bad, "both arms report zero origin reads: the study measured nothing")
	}
	return bad
}

// PrefixTiming returns Ext-20's startup-latency bound (nothing when the
// baseline or relay arm is missing). It is proc-aware, like FramingTiming:
// the halving target binds at PrefixStartupSpeedupMinProcs and above. Below
// that, no timing bound is enforced at all — announced loudly through notes,
// never silently: with the whole crowd time-sharing one core, measured
// time-to-first-cluster is scheduler queueing (the prefix arms do pure CPU
// work while baseline sessions sleep in remote fetches, so the prefix arms
// can even look slower), and the zero-remote-startup count is the
// instant-start proof that still binds. The bound reads the current run
// alone.
func PrefixTiming(current, _ []PrefixRow) (bad, notes []string) {
	cur := prefixArms(current)
	base, bok := cur[PrefixArmBaseline]
	relay, rok := cur[PrefixArmRelay]
	if bok && rok && base.StartupP99Ms > 0 {
		ratio := relay.StartupP99Ms / base.StartupP99Ms
		if relay.Procs >= PrefixStartupSpeedupMinProcs {
			if ratio > 1/PrefixStartupCutTarget {
				bad = append(bad, fmt.Sprintf(
					"prefix+relay startup P99 %.1fms is %.2fx of baseline %.1fms, want ≤ %.2fx at GOMAXPROCS %d",
					relay.StartupP99Ms, ratio, base.StartupP99Ms, 1/PrefixStartupCutTarget, relay.Procs))
			}
		} else {
			notes = append(notes, fmt.Sprintf(
				"WARNING: prefix study ran at GOMAXPROCS %d (< %d): startup latency is scheduler "+
					"queueing when the whole crowd time-shares cores (the CPU-bound prefix arms can "+
					"even measure slower than baseline arms sleeping in remote fetches), so the %.0fx "+
					"startup P99 target is NOT enforced — only the structural zero-remote-startup and "+
					"origin-read bounds bind. Regenerate the gate on a multi-core runner to enforce "+
					"the timing target (measured here: %.2fx of baseline).",
				relay.Procs, PrefixStartupSpeedupMinProcs, PrefixStartupCutTarget, ratio))
		}
	}
	return bad, notes
}

// prefixBaselineCut extracts the committed baseline's origin-read cut
// (baseline reads / prefix+relay reads), or 0 when unavailable.
func prefixBaselineCut(baseline []PrefixRow) float64 {
	var base, relay PrefixRow
	for _, r := range baseline {
		switch r.Arm {
		case PrefixArmBaseline:
			base = r
		case PrefixArmRelay:
			relay = r
		}
	}
	if base.OriginReads > 0 && relay.OriginReads > 0 {
		return float64(base.OriginReads) / float64(relay.OriginReads)
	}
	return 0
}

// FormatPrefixStudy renders Ext-20, appending each prefix arm's origin-read
// cut over the baseline arm.
func FormatPrefixStudy(rows []PrefixRow) string {
	var baseReads int64
	for _, r := range rows {
		if r.Arm == PrefixArmBaseline {
			baseReads = r.OriginReads
		}
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Arm\tWatchers\tPrefixK\tOriginReads\tReads/s\tStartP99Ms\tStartMeanMs\tRemoteStarts\tPrefixServed\tUpstreams\tReadCut")
	for _, r := range rows {
		cut := "-"
		if r.Arm != PrefixArmBaseline && r.OriginReads > 0 && baseReads > 0 {
			cut = fmt.Sprintf("%.2fx", float64(baseReads)/float64(r.OriginReads))
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%.1f\t%.1f\t%d\t%d\t%d\t%s\n",
			r.Arm, r.Watchers, r.PrefixK, r.OriginReads, r.OriginReadsPerSec,
			r.StartupP99Ms, r.StartupMeanMs, r.StartupRemoteFetches,
			r.PrefixServed, r.RelayUpstreams, cut)
	}
	_ = w.Flush()
	return b.String()
}
