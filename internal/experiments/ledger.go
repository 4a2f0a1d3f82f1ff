package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"dvod"
	"dvod/internal/admission"
	"dvod/internal/client"
)

// --- Ext-16: reservation ledger study ----------------------------------------

// Ext-16 contrasts per-server admission brokers against ledger-backed ones on
// a workload two home servers contend over: a line topology home-a — home-b —
// origin whose 3 Mbps trunk (home-b — origin) carries both homes' routes to
// the title's only replica. One 2 Mbps watch starts at each home, staggered so
// the first grant has gossiped before the second server decides. Per-server
// brokers each see only their own reservations and jointly commit 4 Mbps onto
// the 3 Mbps trunk; ledger-backed brokers share one reservation view, so the
// second server refuses instead of oversubscribing.

// Fixed cast of the ledger cell.
const (
	ledgerHomeA  = dvod.NodeID("home-a")
	ledgerHomeB  = dvod.NodeID("home-b")
	ledgerOrigin = dvod.NodeID("origin")
)

// LedgerStudyConfig parameterizes Ext-16.
type LedgerStudyConfig struct {
	// TrunkMbps is the contended trunk's capacity; BitrateMbps the title
	// rate. Two concurrent sessions must overflow the trunk:
	// 2×BitrateMbps > TrunkMbps ≥ BitrateMbps.
	TrunkMbps   float64
	BitrateMbps float64
	// TitleClusters and ClusterBytes set the title geometry; with Drag
	// (per-read disk latency at the origin) they stretch each watch so the
	// two sessions overlap on the trunk.
	TitleClusters int
	ClusterBytes  int64
	Drag          time.Duration
	// Stagger delays the second home's watch so the first grant has
	// gossiped cluster-wide before the second admission decision.
	Stagger time.Duration
	// GossipInterval is the ledger anti-entropy cadence (ledger arm only).
	GossipInterval time.Duration
	// Seed pins the injector's randomized choices.
	Seed int64
}

// DefaultLedgerStudyConfig: a 3 Mbps trunk contended by two 2 Mbps watches of
// a 96-cluster title dragged 4 ms per origin read (~400 ms per watch), the
// second starting 80 ms after the first with 10 ms gossip — eight rounds of
// margin for the first reservation to propagate.
func DefaultLedgerStudyConfig() LedgerStudyConfig {
	return LedgerStudyConfig{
		TrunkMbps:      3,
		BitrateMbps:    2,
		TitleClusters:  96,
		ClusterBytes:   4 << 10,
		Drag:           4 * time.Millisecond,
		Stagger:        80 * time.Millisecond,
		GossipInterval: 10 * time.Millisecond,
		Seed:           7,
	}
}

// LedgerRow is one admission mode's outcome on the contended workload.
type LedgerRow struct {
	Mode     string // "per-server" or "ledger"
	Watchers int
	// Granted / Rejected split the watchers by admission outcome; Failed
	// counts watches that died of anything other than an admission
	// rejection. RejectRate is Rejected per watcher.
	Granted    int
	Rejected   int
	Failed     int
	RejectRate float64
	// TrunkMbps echoes the contended capacity; PeakCommittedMbps is the
	// highest bandwidth ever simultaneously committed onto the trunk
	// across all brokers, and OversubscribedLinkSeconds the time integral
	// spent above capacity — the study's headline number, which the ledger
	// arm must hold at zero.
	TrunkMbps                 float64
	PeakCommittedMbps         float64
	OversubscribedLinkSeconds float64
	// GossipRounds sums ledger.gossip_rounds across nodes (0 per-server).
	GossipRounds int64
}

// LedgerStudy runs Ext-16: the identical contended workload under per-server
// and ledger-backed admission.
func LedgerStudy(cfg LedgerStudyConfig) ([]LedgerRow, error) {
	switch {
	case cfg.BitrateMbps <= 0 || cfg.TrunkMbps < cfg.BitrateMbps:
		return nil, fmt.Errorf("ledger study: trunk %g cannot carry one %g Mbps session",
			cfg.TrunkMbps, cfg.BitrateMbps)
	case 2*cfg.BitrateMbps <= cfg.TrunkMbps:
		return nil, fmt.Errorf("ledger study: trunk %g fits both sessions — nothing contended",
			cfg.TrunkMbps)
	case cfg.TitleClusters <= 0 || cfg.ClusterBytes <= 0:
		return nil, errors.New("ledger study: bad title geometry")
	case cfg.Drag <= 0 || cfg.Stagger <= 0 || cfg.GossipInterval <= 0:
		return nil, errors.New("ledger study: need positive drag, stagger, and gossip interval")
	}
	var out []LedgerRow
	for _, withLedger := range []bool{false, true} {
		row, err := ledgerCell(cfg, withLedger)
		if err != nil {
			return nil, fmt.Errorf("ledger study %s: %w", row.Mode, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// ledgerCell runs one admission mode's cell: build the deployment, start the
// staggered watch pair, and sample the trunk's committed bandwidth while they
// run.
func ledgerCell(cfg LedgerStudyConfig, withLedger bool) (LedgerRow, error) {
	row := LedgerRow{Mode: "per-server", Watchers: 2, TrunkMbps: cfg.TrunkMbps}
	if withLedger {
		row.Mode = "ledger"
	}
	titleBytes := cfg.ClusterBytes * int64(cfg.TitleClusters)
	trunk := dvod.MakeLinkID(ledgerHomeB, ledgerOrigin)
	var plan dvod.FaultPlan
	plan.SlowDisk(0, time.Minute, ledgerOrigin, cfg.Drag)
	spec := dvod.TopologySpec{
		Nodes: []dvod.NodeID{ledgerHomeA, ledgerHomeB, ledgerOrigin},
		Links: []dvod.LinkSpec{
			{A: ledgerHomeA, B: ledgerHomeB, CapacityMbps: 34},
			{A: ledgerHomeB, B: ledgerOrigin, CapacityMbps: cfg.TrunkMbps},
		},
	}
	opts := []dvod.Option{
		dvod.WithClusterBytes(cfg.ClusterBytes),
		dvod.WithDisks(2, titleBytes),
		// The homes' arrays hold one cluster: the title never becomes
		// resident, so every session crosses the trunk.
		dvod.WithNodeDisks(ledgerHomeA, 1, cfg.ClusterBytes),
		dvod.WithNodeDisks(ledgerHomeB, 1, cfg.ClusterBytes),
		dvod.WithAdmission(100),
		dvod.WithLedgerGossipInterval(cfg.GossipInterval),
		dvod.WithFaultPlan(plan, cfg.Seed),
	}
	if !withLedger {
		opts = append(opts, dvod.WithoutLedger())
	}
	svc, err := dvod.New(spec, opts...)
	if err != nil {
		return row, err
	}
	defer svc.Close()
	title := dvod.Title{Name: "contended", SizeBytes: titleBytes, BitrateMbps: cfg.BitrateMbps}
	if err := svc.AddTitle(title); err != nil {
		return row, err
	}
	if err := svc.Preload(ledgerOrigin, title.Name); err != nil {
		return row, err
	}
	if err := svc.Start(); err != nil {
		return row, err
	}

	// Sample the deployment-wide committed bandwidth on the trunk while the
	// watches run: the per-server arm's joint grants push it past capacity.
	sampleStop := make(chan struct{})
	var sampleDone sync.WaitGroup
	sampleDone.Add(1)
	go func() {
		defer sampleDone.Done()
		prev := time.Now()
		for {
			select {
			case <-sampleStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			now := time.Now()
			committed := svc.CommittedLinkMbps()[trunk]
			if committed > row.PeakCommittedMbps {
				row.PeakCommittedMbps = committed
			}
			if committed > cfg.TrunkMbps+1e-9 {
				row.OversubscribedLinkSeconds += now.Sub(prev).Seconds()
			}
			prev = now
		}
	}()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, home := range []dvod.NodeID{ledgerHomeA, ledgerHomeB} {
		// Premium class: its link share is never calibrated down, so each
		// session reserves the full bitrate and two of them genuinely
		// overflow the trunk — the contention under study. Standard-class
		// sessions would degrade themselves under the trunk's calibrated
		// share and hide the effect.
		p, err := svc.Player(home, client.WithClass(admission.Premium))
		if err != nil {
			close(sampleStop)
			sampleDone.Wait()
			return row, err
		}
		wg.Add(1)
		go func(i int, p *dvod.Player, delay time.Duration) {
			defer wg.Done()
			defer p.Close()
			time.Sleep(delay)
			_, errs[i] = p.Watch(title.Name)
		}(i, p, time.Duration(i)*cfg.Stagger)
	}
	wg.Wait()
	close(sampleStop)
	sampleDone.Wait()

	for _, err := range errs {
		switch {
		case err == nil:
			row.Granted++
		case errors.Is(err, admission.ErrRejected):
			row.Rejected++
		default:
			row.Failed++
		}
	}
	row.RejectRate = float64(row.Rejected) / float64(row.Watchers)
	for node, snap := range svc.Metrics() {
		if node == "_faults" {
			continue
		}
		row.GossipRounds += snap.Counters["ledger.gossip_rounds"]
	}
	return row, nil
}

// LedgerStructural gates Ext-16 against its committed baseline and returns
// one message per violation; an empty slice passes. The checks are
// structural, not wall-clock, so the gate is stable on loaded CI machines:
//
//   - ledger arm, zero oversubscription: the ledger exists precisely so the
//     cluster never jointly commits past a link's capacity. Any positive
//     oversubscribed-link-seconds with the ledger on is a correctness bug,
//     not a slowdown, so the bound is absolute — no 20% allowance.
//   - ledger arm, at least one rejection: with the trunk full a refusal is
//     the only correct answer; zero rejections means the second server never
//     saw the first's reservation (gossip or merge broke, or the watches no
//     longer overlap and the cell lost its premise).
//   - per-server arm, every watcher granted: blind brokers must keep
//     admitting — that contrast is the study's claim. Fewer grants means the
//     workload itself changed and the baseline no longer measures anything.
func LedgerStructural(current, baseline []LedgerRow) []string {
	var bad []string
	byMode := func(rows []LedgerRow, mode string) (LedgerRow, bool) {
		for _, r := range rows {
			if r.Mode == mode {
				return r, true
			}
		}
		return LedgerRow{}, false
	}
	if r, ok := byMode(current, "ledger"); ok {
		if r.OversubscribedLinkSeconds > 0 {
			bad = append(bad, fmt.Sprintf(
				"ledger arm oversubscribed the trunk for %.3fs, want exactly 0",
				r.OversubscribedLinkSeconds))
		}
		if r.Rejected == 0 {
			bad = append(bad, "ledger arm rejected nothing — the shared reservation view never reached the second server")
		}
	} else {
		bad = append(bad, "ledger arm missing from current run")
	}
	if r, ok := byMode(current, "per-server"); ok {
		if r.Granted != r.Watchers {
			bad = append(bad, fmt.Sprintf(
				"per-server arm granted %d of %d watchers — the contended workload lost its premise",
				r.Granted, r.Watchers))
		}
	} else {
		bad = append(bad, "per-server arm missing from current run")
	}
	if len(baseline) == 0 {
		bad = append(bad, "ledger baseline holds no rows to compare")
	}
	return bad
}

// FormatLedgerStudy renders Ext-16 as an aligned table.
func FormatLedgerStudy(rows []LedgerRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Mode\tWatchers\tGranted\tRejected\tFailed\tRejectRate\tTrunkMbps\tPeakMbps\tOversubSec\tGossipRounds")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.1f\t%.1f\t%.3f\t%d\n",
			r.Mode, r.Watchers, r.Granted, r.Rejected, r.Failed, r.RejectRate,
			r.TrunkMbps, r.PeakCommittedMbps, r.OversubscribedLinkSeconds, r.GossipRounds)
	}
	_ = w.Flush()
	return b.String()
}
