package experiments

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"dvod"
	"dvod/internal/clock"
)

// --- Ext-17: cluster churn study ---------------------------------------------

// Ext-17 measures the service through a full elastic-membership lifecycle on
// one deployment: a steady three-server fleet, a mid-run join (the DMA
// re-replicates the hottest title onto the joiner), a graceful drain (the
// front door bounces every new watch off the draining server), and a hard
// kill (survivors detect the death by round-counted gossip and keep serving).
// Each phase issues the same number of watches and reports the admit rate and
// the mean number of redirect hops a session followed — the churn headline:
// admit rate 1.0 and zero failed watches through every phase.

// Fixed cast of the churn cell.
const (
	churnAlpha = dvod.NodeID("alpha")
	churnBeta  = dvod.NodeID("beta")
	churnGamma = dvod.NodeID("gamma")
	churnDelta = dvod.NodeID("delta")
)

// ChurnStudyConfig parameterizes Ext-17.
type ChurnStudyConfig struct {
	// WatchesPerPhase is how many watches each phase issues (round-robin over
	// the phase's live homes).
	WatchesPerPhase int
	// TitleClusters and ClusterBytes set the title geometry; BitrateMbps the
	// per-session reservation.
	TitleClusters int
	ClusterBytes  int64
	BitrateMbps   float64
	// MembershipInterval is the membership gossip cadence handed to the
	// deployment; the study drives rounds synchronously, so it only has to be
	// positive.
	MembershipInterval time.Duration
	// Seed pins the run (reserved for fault-plan variants; the base cell is
	// deterministic without it).
	Seed int64
}

// DefaultChurnStudyConfig: four watches per phase of a 24-cluster title at
// 4 KiB per cluster and 1.5 Mbps.
func DefaultChurnStudyConfig() ChurnStudyConfig {
	return ChurnStudyConfig{
		WatchesPerPhase:    4,
		TitleClusters:      24,
		ClusterBytes:       4 << 10,
		BitrateMbps:        1.5,
		MembershipInterval: 250 * time.Millisecond,
		Seed:               7,
	}
}

// ChurnRow is one churn phase's outcome.
type ChurnRow struct {
	// Phase is steady, join, drain, or kill.
	Phase string
	// AliveMembers / FailedMembers count the reference node's post-phase
	// membership view.
	AliveMembers  int
	FailedMembers int
	// Watches issued this phase; Granted completed, Failed did not.
	Watches int
	Granted int
	Failed  int
	// AdmitRate is Granted per watch — the churn headline, 1.0 in every
	// phase of a healthy fleet.
	AdmitRate float64
	// Redirects sums the watch.redirect bounces sessions followed this
	// phase; MeanRedirectHops is Redirects per watch.
	Redirects        int
	MeanRedirectHops float64
}

// ChurnStudy runs Ext-17: one deployment through steady / join / drain / kill.
func ChurnStudy(cfg ChurnStudyConfig) ([]ChurnRow, error) {
	switch {
	case cfg.WatchesPerPhase <= 0:
		return nil, errors.New("churn study: need at least one watch per phase")
	case cfg.TitleClusters <= 0 || cfg.ClusterBytes <= 0 || cfg.BitrateMbps <= 0:
		return nil, errors.New("churn study: bad title geometry")
	case cfg.MembershipInterval <= 0:
		return nil, errors.New("churn study: need a positive membership interval")
	}
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	titleBytes := cfg.ClusterBytes * int64(cfg.TitleClusters)
	spec := dvod.TopologySpec{
		Nodes: []dvod.NodeID{churnAlpha, churnBeta, churnGamma},
		Links: []dvod.LinkSpec{
			{A: churnAlpha, B: churnBeta, CapacityMbps: 34},
			{A: churnBeta, B: churnGamma, CapacityMbps: 34},
			{A: churnAlpha, B: churnGamma, CapacityMbps: 34},
		},
	}
	svc, err := dvod.New(spec,
		dvod.WithClusterBytes(cfg.ClusterBytes),
		dvod.WithDisks(2, 4*titleBytes),
		dvod.WithAdmission(100),
		dvod.WithClock(clk),
		dvod.WithMembership(cfg.MembershipInterval),
		dvod.WithFrontDoor(),
	)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	title := dvod.Title{Name: "churned", SizeBytes: titleBytes, BitrateMbps: cfg.BitrateMbps}
	if err := svc.AddTitle(title); err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	if err := svc.Preload(churnAlpha, title.Name); err != nil {
		return nil, err
	}
	rounds := func(n int) {
		for range n {
			svc.MembershipRound()
		}
	}
	rounds(3)

	// runPhase issues the configured number of watches round-robin over the
	// phase's homes and folds the outcomes into a row.
	runPhase := func(phase string, homes []dvod.NodeID) (ChurnRow, error) {
		row := ChurnRow{Phase: phase, Watches: cfg.WatchesPerPhase}
		for i := range cfg.WatchesPerPhase {
			home := homes[i%len(homes)]
			p, err := svc.Player(home)
			if err != nil {
				return row, err
			}
			stats, err := p.Watch(title.Name)
			_ = p.Close()
			if err != nil {
				row.Failed++
				continue
			}
			row.Granted++
			row.Redirects += stats.Redirects
		}
		row.AdmitRate = float64(row.Granted) / float64(row.Watches)
		row.MeanRedirectHops = float64(row.Redirects) / float64(row.Watches)
		for _, st := range svc.MemberStates(churnAlpha) {
			switch st {
			case dvod.MemberAlive:
				row.AliveMembers++
			case dvod.MemberFailed:
				row.FailedMembers++
			}
		}
		return row, nil
	}

	var out []ChurnRow
	// Phase 1 — steady: non-holders watch through the front door.
	row, err := runPhase("steady", []dvod.NodeID{churnBeta, churnGamma})
	if err != nil {
		return nil, fmt.Errorf("churn study steady: %w", err)
	}
	out = append(out, row)

	// Phase 2 — join: delta enters the running fleet, receives the hot title,
	// and serves it locally while the others still bounce to a holder.
	if err := svc.AddServer(churnDelta, []dvod.LinkSpec{
		{A: churnDelta, B: churnAlpha, CapacityMbps: 34},
	}); err != nil {
		return nil, fmt.Errorf("churn study join: %w", err)
	}
	rounds(3)
	row, err = runPhase("join", []dvod.NodeID{churnDelta, churnGamma})
	if err != nil {
		return nil, fmt.Errorf("churn study join: %w", err)
	}
	out = append(out, row)

	// Phase 3 — drain: beta redirects every new watch while it drains; the
	// phase's watches all land on it, so every session bounces and none fail.
	if err := svc.BeginDrain(churnBeta); err != nil {
		return nil, fmt.Errorf("churn study drain: %w", err)
	}
	row, err = runPhase("drain", []dvod.NodeID{churnBeta})
	if err != nil {
		return nil, fmt.Errorf("churn study drain: %w", err)
	}
	if err := svc.FinishDrain(churnBeta); err != nil {
		return nil, fmt.Errorf("churn study drain: %w", err)
	}
	rounds(3)
	out = append(out, row)

	// Phase 4 — kill: gamma dies unannounced; survivors fail it by
	// round-counted detection and keep serving.
	if err := svc.StopServer(churnGamma); err != nil {
		return nil, fmt.Errorf("churn study kill: %w", err)
	}
	rounds(10)
	row, err = runPhase("kill", []dvod.NodeID{churnAlpha, churnDelta})
	if err != nil {
		return nil, fmt.Errorf("churn study kill: %w", err)
	}
	out = append(out, row)
	return out, nil
}

// ChurnStructural gates Ext-17 against its committed baseline and returns one
// message per violation; an empty slice passes. The checks are structural —
// phase presence, zero failed watches, full admit rate, the front door
// actually bouncing, membership detection actually firing — so the gate is
// stable on loaded CI machines.
func ChurnStructural(current, baseline []ChurnRow) []string {
	var bad []string
	byPhase := func(rows []ChurnRow, phase string) (ChurnRow, bool) {
		for _, r := range rows {
			if r.Phase == phase {
				return r, true
			}
		}
		return ChurnRow{}, false
	}
	for _, phase := range []string{"steady", "join", "drain", "kill"} {
		r, ok := byPhase(current, phase)
		if !ok {
			bad = append(bad, fmt.Sprintf("phase %q missing from current run", phase))
			continue
		}
		if r.Failed != 0 {
			bad = append(bad, fmt.Sprintf("%s phase failed %d watches, want 0", phase, r.Failed))
		}
		if r.AdmitRate < 1 {
			bad = append(bad, fmt.Sprintf("%s phase admit rate %.2f, want 1.00", phase, r.AdmitRate))
		}
	}
	if r, ok := byPhase(current, "steady"); ok && r.Redirects == 0 {
		bad = append(bad, "steady phase followed no redirects — the front door never bounced a non-holder watch")
	}
	if r, ok := byPhase(current, "drain"); ok && r.Redirects == 0 {
		bad = append(bad, "drain phase followed no redirects — the draining node served new watches itself")
	}
	if r, ok := byPhase(current, "kill"); ok && r.FailedMembers == 0 {
		bad = append(bad, "kill phase detected no failed member — round-counted failure detection never fired")
	}
	if len(baseline) == 0 {
		bad = append(bad, "churn baseline holds no rows to compare")
	}
	return bad
}

// FormatChurnStudy renders Ext-17 as an aligned table.
func FormatChurnStudy(rows []ChurnRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Phase\tAlive\tFailedMembers\tWatches\tGranted\tFailed\tAdmitRate\tRedirects\tMeanHops")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.2f\t%d\t%.2f\n",
			r.Phase, r.AliveMembers, r.FailedMembers, r.Watches, r.Granted, r.Failed,
			r.AdmitRate, r.Redirects, r.MeanRedirectHops)
	}
	_ = w.Flush()
	return b.String()
}
