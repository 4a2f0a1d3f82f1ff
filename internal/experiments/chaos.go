package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"dvod"
	"dvod/internal/client"
)

// --- Ext-15: chaos study ------------------------------------------------------

// Ext-15 exercises the self-healing delivery plane under deterministic fault
// injection: a three-node star (an edge home server whose array holds a single
// cluster, so every cluster is fetched remotely, plus two origin replicas) runs
// each canned fault schedule twice — once with the full defense (circuit
// breakers, hedged fetches, client resume) and once bare (WithoutDefense,
// plain players). The contrast is the
// study's claim: faults that fail every bare watch are absorbed by the
// defended plane as bounded rebuffer time.

// ChaosStudyConfig parameterizes Ext-15.
type ChaosStudyConfig struct {
	// Watchers is the number of concurrent watch sessions per cell.
	Watchers int
	// TitleClusters is the title length in clusters; with Drag it sets how
	// long a watch stays in flight, so the fault windows land mid-stream.
	TitleClusters int
	// ClusterBytes is the delivery cluster size.
	ClusterBytes int64
	// BitrateMbps is the title bitrate; it fixes the playout deadline each
	// cluster must beat, and hence what counts as a rebuffer.
	BitrateMbps float64
	// Drag is the injected per-read disk latency on both origins — the
	// pacing fault that stretches delivery across the fault windows.
	Drag time.Duration
	// Seed pins the injector's randomized choices; one (plan, seed) pair
	// reproduces the identical fault sequence run after run.
	Seed int64
}

// DefaultChaosStudyConfig: 4 concurrent watchers of a 256 KiB title at 4 KiB
// clusters and 2 Mbps, dragged 3 ms per origin read so the ~350 ms watch spans
// every schedule's fault windows. At 2 Mbps a cluster plays for ~16 ms while a
// defended fetch needs at most ~14 ms (hedge deadline + dragged read), so the
// defense can keep playout fed through a fault; the bare plane cannot.
func DefaultChaosStudyConfig() ChaosStudyConfig {
	return ChaosStudyConfig{
		Watchers:      4,
		TitleClusters: 64,
		ClusterBytes:  4 << 10,
		BitrateMbps:   2,
		Drag:          3 * time.Millisecond,
		Seed:          7,
	}
}

// ChaosSchedules lists the canned fault schedules, in run order:
//
//   - "flap": the active route's link goes down twice mid-stream (the title's
//     only replica sits behind it), cutting live streams and refusing dials.
//   - "partition": the sole replica is unreachable for one longer window —
//     recovery can only come from outlasting the outage.
//   - "stall": the preferred replica freezes mid-byte while a second replica
//     stays healthy — the hedging rescue case.
//   - "failover": the preferred replica dies while a second replica stays
//     healthy — the breaker case: each home must stop planning the dead peer
//     instead of retrying it on every cluster.
func ChaosSchedules() []string { return []string{"flap", "partition", "stall", "failover"} }

// ChaosRow is one (schedule, delivery mode) outcome.
type ChaosRow struct {
	Schedule string // one of ChaosSchedules
	Mode     string // "defended" or "bare"
	Watchers int
	// FailedWatches counts sessions that ended in error; FailedRate is the
	// per-watcher fraction.
	FailedWatches int
	FailedRate    float64
	// Rebuffers sums playout stalls across watchers; RebufferRate is stalls
	// per watcher and MeanStallMs the mean per-watcher stalled time.
	Rebuffers    int
	RebufferRate float64
	MeanStallMs  float64
	// MTTRms is the mean (over watchers that delivered ≥ 2 clusters) of the
	// worst inter-cluster arrival gap — how long the longest outage looked
	// from the client's couch.
	MTTRms float64
	// Retries is the server-side fetch retry total; Resumes the client-side
	// mid-stream resume total (always 0 for bare players).
	Retries int64
	Resumes int
	// HedgesLaunched / HedgesWon count hedged fetches raced and won.
	HedgesLaunched int64
	HedgesWon      int64
	// InjectedFaults is the injector's activation count for the cell.
	InjectedFaults int64
}

// Fixed cast of the chaos cell. The schedules reference these nodes.
const (
	chaosHome = dvod.NodeID("edge")
	chaosO1   = dvod.NodeID("origin-a")
	chaosO2   = dvod.NodeID("origin-b")
)

// ChaosStudy runs Ext-15: every schedule × {bare, defended}.
func ChaosStudy(cfg ChaosStudyConfig) ([]ChaosRow, error) {
	switch {
	case cfg.Watchers <= 0:
		return nil, errors.New("chaos study: need watchers")
	case cfg.TitleClusters <= 0 || cfg.ClusterBytes <= 0:
		return nil, errors.New("chaos study: bad title geometry")
	case cfg.BitrateMbps <= 0:
		return nil, errors.New("chaos study: need a positive bitrate")
	case cfg.Drag <= 0:
		return nil, errors.New("chaos study: need a positive disk drag")
	}
	var out []ChaosRow
	for _, schedule := range ChaosSchedules() {
		for _, defended := range []bool{false, true} {
			row, err := chaosCell(cfg, schedule, defended)
			if err != nil {
				return nil, fmt.Errorf("chaos study %s/%s: %w", schedule, row.Mode, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// chaosPlan builds the schedule's fault plan and names the origins holding the
// title. Every plan carries the disk drag on both origins; the window offsets
// assume the default geometry's ~350 ms watch.
func chaosPlan(cfg ChaosStudyConfig, schedule string) (dvod.FaultPlan, []dvod.NodeID, error) {
	var plan dvod.FaultPlan
	window := 10 * time.Second
	plan.SlowDisk(0, window, chaosO1, cfg.Drag)
	plan.SlowDisk(0, window, chaosO2, cfg.Drag)
	switch schedule {
	case "flap":
		link := dvod.MakeLinkID(chaosHome, chaosO1)
		plan.FlapLink(80*time.Millisecond, 100*time.Millisecond, link)
		plan.FlapLink(240*time.Millisecond, 80*time.Millisecond, link)
		return plan, []dvod.NodeID{chaosO1}, nil
	case "partition":
		plan.FailPeer(100*time.Millisecond, 160*time.Millisecond, chaosO1)
		return plan, []dvod.NodeID{chaosO1}, nil
	case "stall":
		plan.StallPeer(60*time.Millisecond, 200*time.Millisecond, chaosO1)
		return plan, []dvod.NodeID{chaosO1, chaosO2}, nil
	case "failover":
		plan.FailPeer(60*time.Millisecond, 200*time.Millisecond, chaosO1)
		return plan, []dvod.NodeID{chaosO1, chaosO2}, nil
	}
	return plan, nil, fmt.Errorf("chaos study: unknown schedule %q", schedule)
}

// chaosCell runs one burst of concurrent watches against a fresh three-node
// deployment with the schedule's fault plan armed. Routing is biased toward
// origin-a (lower reported traffic), so every schedule hits the active route.
func chaosCell(cfg ChaosStudyConfig, schedule string, defended bool) (ChaosRow, error) {
	row := ChaosRow{Schedule: schedule, Mode: "defended", Watchers: cfg.Watchers}
	if !defended {
		row.Mode = "bare"
	}
	plan, holders, err := chaosPlan(cfg, schedule)
	if err != nil {
		return row, err
	}
	titleBytes := cfg.ClusterBytes * int64(cfg.TitleClusters)
	spec := dvod.TopologySpec{
		Nodes: []dvod.NodeID{chaosHome, chaosO1, chaosO2},
		Links: []dvod.LinkSpec{
			{A: chaosHome, B: chaosO1, CapacityMbps: 34},
			{A: chaosHome, B: chaosO2, CapacityMbps: 34},
		},
	}
	opts := []dvod.Option{
		dvod.WithClusterBytes(cfg.ClusterBytes),
		dvod.WithDisks(2, titleBytes),
		// The edge's array holds one cluster: nothing is ever resident, so
		// every cluster crosses the network and meets the faults.
		dvod.WithNodeDisks(chaosHome, 1, cfg.ClusterBytes),
		dvod.WithFaultPlan(plan, cfg.Seed),
	}
	if !defended {
		opts = append(opts, dvod.WithoutDefense())
	}
	svc, err := dvod.New(spec, opts...)
	if err != nil {
		return row, err
	}
	defer svc.Close()
	title := dvod.Title{Name: "chaos-" + schedule, SizeBytes: titleBytes, BitrateMbps: cfg.BitrateMbps}
	if err := svc.AddTitle(title); err != nil {
		return row, err
	}
	// Preload before Start: the plan's clock only ticks once the service is
	// live, so initial placement runs fault-free.
	for _, origin := range holders {
		if err := svc.Preload(origin, title.Name); err != nil {
			return row, err
		}
	}
	if err := svc.Start(); err != nil {
		return row, err
	}
	if err := svc.SetLinkTraffic(chaosHome, chaosO1, 2); err != nil {
		return row, err
	}
	if err := svc.SetLinkTraffic(chaosHome, chaosO2, 10); err != nil {
		return row, err
	}

	stats := make([]dvod.PlaybackStats, cfg.Watchers)
	errs := make([]error, cfg.Watchers)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := range cfg.Watchers {
		var popts []client.Option
		if defended {
			popts = append(popts,
				client.WithResume(),
				client.WithDialer(svc.WatchDialer(chaosHome)))
		}
		p, err := svc.Player(chaosHome, popts...)
		if err != nil {
			return row, err
		}
		wg.Add(1)
		go func(i int, p *dvod.Player) {
			defer wg.Done()
			defer p.Close()
			<-gate
			stats[i], errs[i] = p.Watch(title.Name)
		}(i, p)
	}
	close(gate)
	wg.Wait()

	var gapWatchers int
	for i := range stats {
		if errs[i] != nil {
			row.FailedWatches++
		}
		row.Rebuffers += stats[i].Stalls
		row.MeanStallMs += float64(stats[i].StallTime) / float64(time.Millisecond)
		row.Resumes += stats[i].Retries
		if g := maxArrivalGap(stats[i].Records); g > 0 {
			row.MTTRms += float64(g) / float64(time.Millisecond)
			gapWatchers++
		}
	}
	row.FailedRate = float64(row.FailedWatches) / float64(cfg.Watchers)
	row.RebufferRate = float64(row.Rebuffers) / float64(cfg.Watchers)
	row.MeanStallMs /= float64(cfg.Watchers)
	if gapWatchers > 0 {
		row.MTTRms /= float64(gapWatchers)
	}
	for node, snap := range svc.Metrics() {
		if node == "_faults" {
			continue
		}
		row.Retries += snap.Counters["server.fetch_retries"]
		row.HedgesLaunched += snap.Counters["client.hedges_launched"]
		row.HedgesWon += snap.Counters["client.hedges_won"]
	}
	row.InjectedFaults = svc.InjectedFaults()
	return row, nil
}

// maxArrivalGap returns the longest wait between consecutive cluster arrivals
// (0 with fewer than two records) — the client's-eye view of the worst outage.
func maxArrivalGap(recs []client.ClusterRecord) time.Duration {
	var max time.Duration
	for i := 1; i < len(recs); i++ {
		if g := recs[i].ArrivedAt.Sub(recs[i-1].ArrivedAt); g > max {
			max = g
		}
	}
	return max
}

// The Ext-15 gate compares a run's defended arms against a baseline. Three
// metrics guard three failure modes, each allowed 20% over baseline
// plus an absolute slack sized to one unit of scheduler noise:
//
//   - FailedRate (slack 0.3/watcher): a watch failing at all means replica
//     failover or resume broke — the defense's core recovery contract.
//   - RebufferRate (slack 1.0/watcher): one borderline stall per watcher is
//     timing noise; several means the plane stopped keeping playout fed.
//   - MTTRms (slack 50 ms): the worst client-visible delivery gap — the
//     metric hedging and resume exist to bound. A dead hedge path shows up
//     here (the stall schedule's ~20 ms MTTR reverts to the full window)
//     even when no watch fails.
//
// ChaosStructural checks the first, ChaosTiming the other two.

// defendedChaosRows indexes the defended rows by schedule.
func defendedChaosRows(rows []ChaosRow) map[string]ChaosRow {
	out := make(map[string]ChaosRow)
	for _, r := range rows {
		if r.Mode == "defended" {
			out[r.Schedule] = r
		}
	}
	return out
}

// ChaosStructural returns the Ext-15 bounds that do not depend on the
// machine's speed: every defended schedule of the baseline is still
// measured, and none fails more watches than the FailedRate bound allows.
func ChaosStructural(current, baseline []ChaosRow) []string {
	cur := defendedChaosRows(current)
	var bad []string
	for _, b := range baseline {
		if b.Mode != "defended" {
			continue
		}
		r, ok := cur[b.Schedule]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: baseline defended schedule missing from current run", b.Schedule))
			continue
		}
		if r.FailedRate > b.FailedRate*1.2+0.3 {
			bad = append(bad, fmt.Sprintf("%s: defended failed-watch rate %.2f regressed past baseline %.2f",
				r.Schedule, r.FailedRate, b.FailedRate))
		}
	}
	return bad
}

// ChaosTiming returns Ext-15's wall-clock bounds: the defended rebuffer rate
// and MTTR of every schedule the baseline records. It has no notes.
func ChaosTiming(current, baseline []ChaosRow) (bad, notes []string) {
	base := defendedChaosRows(baseline)
	for _, r := range current {
		b, ok := base[r.Schedule]
		if r.Mode != "defended" || !ok {
			continue
		}
		if r.RebufferRate > b.RebufferRate*1.2+1.0 {
			bad = append(bad, fmt.Sprintf("%s: defended rebuffer rate %.2f regressed past baseline %.2f",
				r.Schedule, r.RebufferRate, b.RebufferRate))
		}
		if r.MTTRms > b.MTTRms*1.2+50 {
			bad = append(bad, fmt.Sprintf("%s: defended MTTR %.1fms regressed past baseline %.1fms",
				r.Schedule, r.MTTRms, b.MTTRms))
		}
	}
	return bad, nil
}

// FormatChaosStudy renders Ext-15 as an aligned table.
func FormatChaosStudy(rows []ChaosRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Schedule\tMode\tWatchers\tFailed\tFailRate\tRebuffers\tRebufRate\tMTTRms\tStallMs\tRetries\tResumes\tHedges\tHedgeWins\tFaults")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.2f\t%d\t%.2f\t%.1f\t%.1f\t%d\t%d\t%d\t%d\t%d\n",
			r.Schedule, r.Mode, r.Watchers, r.FailedWatches, r.FailedRate,
			r.Rebuffers, r.RebufferRate, r.MTTRms, r.MeanStallMs,
			r.Retries, r.Resumes, r.HedgesLaunched, r.HedgesWon, r.InjectedFaults)
	}
	_ = w.Flush()
	return b.String()
}
