// Command vodbench runs the extension studies catalogued in DESIGN.md:
//
//	Ext-1  -study routing   VRA vs min-hop/random/static under diurnal load
//	Ext-2  -study cache     DMA vs LRU/LFU/none across Zipf skews
//	Ext-3  -study cluster   cluster size vs mid-stream adaptivity
//	Ext-4  -study striping  striping width vs read parallelism
//	Ext-5  -study k         normalization-constant sensitivity
//	Ext-6  -study granularity  whole-title vs segment caching (partial viewing)
//	Ext-7  -study scale     VRA decision latency vs network size
//	Ext-8  -study parallel  single-server vs multi-server parallel fetch
//	Ext-9  -study blocking  admission control: blocking vs offered load
//	Ext-10 -study placement initial replica placement quality (k-median)
//	Ext-11 -study adaptation cache recovery speed after a popularity flip
//	Ext-12 -study admission per-class admission vs best-effort (-class-mix)
//	Ext-13 -study framing   JSON vs binary cluster framing over live TCP
//	Ext-14 -study merge     shared-prefix stream merging vs unicast delivery
//	Ext-15 -study chaos     fault injection: defended vs bare delivery plane
//	Ext-16 -study ledger    per-server vs ledger-backed link admission
//	Ext-17 -study churn     elastic membership: join / drain / kill lifecycle
//	Ext-18 -study contention sharded admission + lock-free read hot paths
//	Ext-19 -study membership WAN membership: delta-sync gossip at fleet scale
//	Ext-20 -study prefix    prefix replication tier + cohort relays (flash crowd)
//	       -study all       everything (default)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dvod/internal/experiments"
	"dvod/internal/media"
)

func main() {
	study := flag.String("study", "all", "routing | cache | cluster | striping | k | all")
	seed := flag.Int64("seed", 1, "random seed for workload generation")
	duration := flag.Duration("duration", time.Hour, "simulated trace duration (routing study)")
	rate := flag.Float64("rate", 0.02, "request arrivals per second (routing study)")
	classMix := flag.String("class-mix", "premium:0.2,standard:0.5,background:0.3",
		"class:weight list for the admission study")
	csvDir := flag.String("csv", "", "also write each study's rows as CSV into this directory")
	framingOut := flag.String("framing-out", "",
		"write the framing study's rows as a JSON baseline to this file (framing study only)")
	framingBaseline := flag.String("framing-baseline", "",
		"gate the framing study against this baseline file: kernel rows present and taking the kernel path, proc-aware kernel-over-binary speedup (framing study only)")
	mergeOut := flag.String("merge-out", "",
		"write the merge study's rows as a JSON baseline to this file (merge study only)")
	mergeBaseline := flag.String("merge-baseline", "",
		"compare the merge study's origin-read savings against this baseline file and fail on >20% regression (merge study only)")
	chaosOut := flag.String("chaos-out", "",
		"write the chaos study's rows as a JSON baseline to this file (chaos study only)")
	chaosBaseline := flag.String("chaos-baseline", "",
		"compare the chaos study's defended failed-watch and rebuffer rates against this baseline file and fail on >20% regression (chaos study only)")
	ledgerOut := flag.String("ledger-out", "",
		"write the ledger study's rows as a JSON baseline to this file (ledger study only)")
	ledgerBaseline := flag.String("ledger-baseline", "",
		"gate the ledger study against this baseline file: oversubscription must stay 0 with the ledger on (ledger study only)")
	churnOut := flag.String("churn-out", "",
		"write the churn study's rows as a JSON baseline to this file (churn study only)")
	churnBaseline := flag.String("churn-baseline", "",
		"gate the churn study against this baseline file: zero failed watches and full admit rate through every phase (churn study only)")
	contentionOut := flag.String("contention-out", "",
		"write the contention study's rows as a JSON baseline to this file (contention study only)")
	contentionBaseline := flag.String("contention-baseline", "",
		"gate the contention study against this baseline file: absolute admissions/sec floor plus baseline-relative shard scaling (contention study only)")
	membershipOut := flag.String("membership-out", "",
		"write the membership study's rows as a JSON baseline to this file (membership study only)")
	membershipBaseline := flag.String("membership-baseline", "",
		"gate the membership study against this baseline file: delta bytes/round at least 5x under full sync, convergence within 2x, zero false Failed verdicts under the loss plan (membership study only)")
	prefixOut := flag.String("prefix-out", "",
		"write the prefix study's rows as a JSON baseline to this file (prefix study only)")
	prefixBaseline := flag.String("prefix-baseline", "",
		"gate the prefix study against this baseline file: zero remote startups on the prefix arms, at least 5x fewer origin reads with cohort relays, proc-aware startup P99 halving (prefix study only)")
	flag.Parse()
	if err := run(os.Stdout, *study, *seed, *duration, *rate, *classMix, *csvDir, *framingOut, *framingBaseline, *mergeOut, *mergeBaseline, *chaosOut, *chaosBaseline, *ledgerOut, *ledgerBaseline, *churnOut, *churnBaseline, *contentionOut, *contentionBaseline, *membershipOut, *membershipBaseline, *prefixOut, *prefixBaseline); err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, study string, seed int64, duration time.Duration, rate float64, classMix, csvDir, framingOut, framingBaseline, mergeOut, mergeBaseline, chaosOut, chaosBaseline, ledgerOut, ledgerBaseline, churnOut, churnBaseline, contentionOut, contentionBaseline, membershipOut, membershipBaseline, prefixOut, prefixBaseline string) error {
	writeCSV := func(name string, rows any) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return experiments.WriteRowsCSV(f, rows)
	}
	known := false
	if study == "routing" || study == "all" {
		known = true
		cfg := experiments.DefaultRoutingStudyConfig()
		cfg.Seed = seed
		cfg.Duration = duration
		cfg.RatePerSec = rate
		rows, err := experiments.RoutingStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-1. Routing policy comparison (identical diurnal trace per policy)")
		fmt.Fprintln(w, experiments.FormatRoutingStudy(rows))
		if err := writeCSV("routing", rows); err != nil {
			return err
		}
	}
	if study == "cache" || study == "all" {
		known = true
		cfg := experiments.DefaultCacheStudyConfig()
		cfg.Seed = seed
		cells, err := experiments.CacheStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-2. Cache policy comparison across Zipf skews (20% cache)")
		fmt.Fprintln(w, experiments.FormatCacheStudy(cells))
		if err := writeCSV("cache", cells); err != nil {
			return err
		}
	}
	if study == "cluster" || study == "all" {
		known = true
		cfg := experiments.DefaultClusterSweepConfig()
		cfg.Seed = seed
		rows, err := experiments.ClusterSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-3. Cluster size vs mid-stream re-routing (congestion injected at 2s)")
		fmt.Fprintln(w, experiments.FormatClusterSweep(rows))
		if err := writeCSV("cluster", rows); err != nil {
			return err
		}
	}
	if study == "striping" || study == "all" {
		known = true
		title := media.Title{Name: "feature", SizeBytes: 64 << 20, BitrateMbps: 1.5}
		rows, err := experiments.StripingSweep(title, 256<<10, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-4. Striping width vs modeled read parallelism (64 MiB title)")
		fmt.Fprintln(w, experiments.FormatStripingSweep(rows))
		if err := writeCSV("striping", rows); err != nil {
			return err
		}
	}
	if study == "k" || study == "all" {
		known = true
		rows, err := experiments.KSweep([]float64{1, 2, 5, 10, 20, 50, 100})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-5. Normalization constant K vs case-study decisions")
		fmt.Fprintln(w, experiments.FormatKSweep(rows))
	}
	if study == "granularity" || study == "all" {
		known = true
		cfg := experiments.DefaultGranularityStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.GranularityStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-6. Caching granularity under partial viewing (10-100% watched)")
		fmt.Fprintln(w, experiments.FormatGranularityStudy(rows))
		if err := writeCSV("granularity", rows); err != nil {
			return err
		}
	}
	if study == "scale" || study == "all" {
		known = true
		cfg := experiments.DefaultScalabilityStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.ScalabilityStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-7. VRA decision latency vs network size (random topologies)")
		fmt.Fprintln(w, experiments.FormatScalabilityStudy(rows))
		if err := writeCSV("scale", rows); err != nil {
			return err
		}
	}
	if study == "parallel" || study == "all" {
		known = true
		rows, err := experiments.ParallelFetch(experiments.DefaultParallelFetchConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-8. Single-server vs multi-server parallel fetch (8am, 3 replicas)")
		fmt.Fprintln(w, experiments.FormatParallelFetch(rows))
		if err := writeCSV("parallel", rows); err != nil {
			return err
		}
	}
	if study == "blocking" || study == "all" {
		known = true
		cfg := experiments.DefaultBlockingStudyConfig()
		cfg.Seed = seed
		cells, err := experiments.BlockingStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-9. Admission control: blocking probability vs offered load")
		fmt.Fprintln(w, experiments.FormatBlockingStudy(cells))
		if err := writeCSV("blocking", cells); err != nil {
			return err
		}
	}
	if study == "placement" || study == "all" {
		known = true
		cfg := experiments.DefaultPlacementStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.PlacementStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-10. Initial replica placement quality (4pm, skewed demand)")
		fmt.Fprintln(w, experiments.FormatPlacementStudy(rows))
		if err := writeCSV("placement", rows); err != nil {
			return err
		}
	}
	if study == "adaptation" || study == "all" {
		known = true
		cfg := experiments.DefaultAdaptationStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.AdaptationStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-11. Cache adaptation after a popularity flip (windowed hit ratio)")
		fmt.Fprintln(w, experiments.FormatAdaptationStudy(rows))
		if err := writeCSV("adaptation", rows); err != nil {
			return err
		}
	}
	if study == "admission" || study == "all" {
		known = true
		mix, err := experiments.ParseClassMix(classMix)
		if err != nil {
			return err
		}
		cfg := experiments.DefaultAdmissionStudyConfig()
		cfg.Seed = seed
		cfg.Mix = mix
		cells, err := experiments.AdmissionStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-12. Per-class admission vs best-effort (mix "+classMix+")")
		fmt.Fprintln(w, experiments.FormatAdmissionStudy(cells))
		if err := writeCSV("admission", cells); err != nil {
			return err
		}
	}
	if study == "framing" || study == "all" {
		known = true
		rows, err := experiments.FramingStudy(experiments.DefaultFramingStudyConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-13. JSON vs binary cluster framing (live TCP, single node)")
		fmt.Fprintln(w, experiments.FormatFramingStudy(rows))
		if err := writeCSV("framing", rows); err != nil {
			return err
		}
		if framingOut != "" {
			data, err := json.MarshalIndent(framingReport{Study: "framing", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(framingOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if framingBaseline != "" {
			if err := checkFramingBaseline(w, rows, framingBaseline); err != nil {
				return err
			}
		}
	}
	if study == "merge" || study == "all" {
		known = true
		cfg := experiments.DefaultMergeStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.MergeStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-14. Shared-prefix stream merging vs unicast (concurrent watchers, remote origin)")
		fmt.Fprintln(w, experiments.FormatMergeStudy(rows))
		if err := writeCSV("merge", rows); err != nil {
			return err
		}
		if mergeOut != "" {
			data, err := json.MarshalIndent(mergeReport{Study: "merge", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(mergeOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if mergeBaseline != "" {
			if err := checkMergeBaseline(w, rows, mergeBaseline); err != nil {
				return err
			}
		}
	}
	if study == "chaos" || study == "all" {
		known = true
		cfg := experiments.DefaultChaosStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.ChaosStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-15. Fault injection: defended vs bare delivery plane (canned schedules)")
		fmt.Fprintln(w, experiments.FormatChaosStudy(rows))
		if err := writeCSV("chaos", rows); err != nil {
			return err
		}
		if chaosOut != "" {
			data, err := json.MarshalIndent(chaosReport{Study: "chaos", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(chaosOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if chaosBaseline != "" {
			if err := checkChaosBaseline(w, rows, chaosBaseline); err != nil {
				return err
			}
		}
	}
	if study == "ledger" || study == "all" {
		known = true
		cfg := experiments.DefaultLedgerStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.LedgerStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-16. Link admission: per-server vs ledger-backed brokers (contended trunk)")
		fmt.Fprintln(w, experiments.FormatLedgerStudy(rows))
		if err := writeCSV("ledger", rows); err != nil {
			return err
		}
		if ledgerOut != "" {
			data, err := json.MarshalIndent(ledgerReport{Study: "ledger", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(ledgerOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if ledgerBaseline != "" {
			if err := checkLedgerBaseline(w, rows, ledgerBaseline); err != nil {
				return err
			}
		}
	}
	if study == "churn" || study == "all" {
		known = true
		cfg := experiments.DefaultChurnStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.ChurnStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-17. Elastic membership: watches through join / drain / kill")
		fmt.Fprintln(w, experiments.FormatChurnStudy(rows))
		if err := writeCSV("churn", rows); err != nil {
			return err
		}
		if churnOut != "" {
			data, err := json.MarshalIndent(churnReport{Study: "churn", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(churnOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if churnBaseline != "" {
			if err := checkChurnBaseline(w, rows, churnBaseline); err != nil {
				return err
			}
		}
	}
	if study == "contention" || study == "all" {
		known = true
		rows, err := experiments.ContentionStudy(experiments.DefaultContentionStudyConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-18. Hot-path contention: sharded admission + lock-free reads")
		fmt.Fprintln(w, experiments.FormatContentionStudy(rows))
		if err := writeCSV("contention", rows); err != nil {
			return err
		}
		if contentionOut != "" {
			data, err := json.MarshalIndent(contentionReport{Study: "contention", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(contentionOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if contentionBaseline != "" {
			if err := checkContentionBaseline(w, rows, contentionBaseline); err != nil {
				return err
			}
		}
	}
	if study == "membership" || study == "all" {
		known = true
		cfg := experiments.DefaultMembershipStudyConfig()
		cfg.Seed = seed
		rows, err := experiments.MembershipStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-19. WAN membership: delta-sync gossip vs full views under loss")
		fmt.Fprintln(w, experiments.FormatMembershipStudy(rows))
		if err := writeCSV("membership", rows); err != nil {
			return err
		}
		if membershipOut != "" {
			data, err := json.MarshalIndent(membershipReport{Study: "membership", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(membershipOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if membershipBaseline != "" {
			if err := checkMembershipBaseline(w, rows, membershipBaseline); err != nil {
				return err
			}
		}
	}
	if study == "prefix" || study == "all" {
		known = true
		cfg := experiments.DefaultPrefixStudyConfig()
		rows, err := experiments.PrefixStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ext-20. Prefix replication tier + cohort relays under a flash crowd")
		fmt.Fprintln(w, experiments.FormatPrefixStudy(rows))
		if err := writeCSV("prefix", rows); err != nil {
			return err
		}
		if prefixOut != "" {
			data, err := json.MarshalIndent(prefixReport{Study: "prefix", Rows: rows}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(prefixOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if prefixBaseline != "" {
			if err := checkPrefixBaseline(w, rows, prefixBaseline); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown study %q", study)
	}
	return nil
}

// framingReport is the committed BENCH_framing.json schema.
type framingReport struct {
	Study string                   `json:"study"`
	Rows  []experiments.FramingRow `json:"rows"`
}

// checkFramingBaseline gates the framing study. Structural bounds (kernel
// rows measured, kernel path actually taken on Linux) bind on every machine;
// the kernel-over-binary speedup target only binds where the runner can
// demonstrate it — see FramingRegression for the proc-aware rules, which
// print their single-core warning loudly instead of silently weakening the
// gate.
func checkFramingBaseline(w io.Writer, rows []experiments.FramingRow, path string) error {
	base, err := loadBaseline[framingReport]("framing", path)
	if err != nil {
		return err
	}
	bad, notes := experiments.FramingRegression(rows, base.Rows)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	if len(bad) > 0 {
		return fmt.Errorf("framing regression: %s", strings.Join(bad, "; "))
	}
	fmt.Fprintln(w, "framing baseline check passed")
	return nil
}

// loadBaseline reads a committed BENCH_<study>.json file into its schema R.
func loadBaseline[R any](study, path string) (R, error) {
	var base R
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s baseline %s: %w", study, path, err)
	}
	return base, nil
}

// contentionReport is the committed BENCH_contention.json schema.
type contentionReport struct {
	Study string                      `json:"study"`
	Rows  []experiments.ContentionRow `json:"rows"`
}

// checkContentionBaseline gates the contention study. The absolute
// admissions/sec floor and lock-free-read liveness bind on every machine;
// shard-scaling and raw-throughput comparisons only bind to the degree the
// baseline machine could demonstrate them (see ContentionRegression) so a
// baseline recorded on few cores never makes the gate flake on many, or vice
// versa. The gate's notes — in particular the loud warning that a sub-4-proc
// baseline cannot set the scaling bound — are printed verbatim.
func checkContentionBaseline(w io.Writer, rows []experiments.ContentionRow, path string) error {
	base, err := loadBaseline[contentionReport]("contention", path)
	if err != nil {
		return err
	}
	for _, r := range base.Rows {
		fmt.Fprintf(w, "contention baseline shards=%d: %.0f adm/sec %.0f reads/sec (procs %d)\n",
			r.Shards, r.AdmissionsPerSec, r.SnapshotReadsPerSec, r.Procs)
	}
	bad, notes := experiments.ContentionRegression(rows, base.Rows)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	if len(bad) > 0 {
		return fmt.Errorf("contention regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// ledgerReport is the committed BENCH_ledger.json schema.
type ledgerReport struct {
	Study string                  `json:"study"`
	Rows  []experiments.LedgerRow `json:"rows"`
}

// checkLedgerBaseline gates the ledger study: zero oversubscribed-link-seconds
// with the ledger on (an absolute bound — any positive value is a correctness
// bug), at least one rejection on the full trunk, and blind per-server brokers
// still granting everything (the contrast the study exists to show).
func checkLedgerBaseline(w io.Writer, rows []experiments.LedgerRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base ledgerReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("ledger baseline %s: %w", path, err)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "ledger baseline %s: oversub %.3fs rejected %d/%d\n",
			r.Mode, r.OversubscribedLinkSeconds, r.Rejected, r.Watchers)
	}
	if bad := experiments.LedgerRegression(rows, base.Rows); len(bad) > 0 {
		return fmt.Errorf("ledger regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// churnReport is the committed BENCH_churn.json schema.
type churnReport struct {
	Study string                 `json:"study"`
	Rows  []experiments.ChurnRow `json:"rows"`
}

// checkChurnBaseline gates the churn study on its structural invariants: all
// four lifecycle phases present, zero failed watches and a 1.0 admit rate in
// each, the front door actually bouncing during steady and drain, and the
// failure detector actually firing after the kill.
func checkChurnBaseline(w io.Writer, rows []experiments.ChurnRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base churnReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("churn baseline %s: %w", path, err)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "churn baseline %s: granted %d/%d redirects %d mean hops %.2f\n",
			r.Phase, r.Granted, r.Watches, r.Redirects, r.MeanRedirectHops)
	}
	if bad := experiments.ChurnRegression(rows, base.Rows); len(bad) > 0 {
		return fmt.Errorf("churn regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// membershipReport is the committed BENCH_membership.json schema.
type membershipReport struct {
	Study string                      `json:"study"`
	Rows  []experiments.MembershipRow `json:"rows"`
}

// checkMembershipBaseline gates the membership study on its structural
// invariants: every cell converged and detected the kills, delta steady
// bytes at least 5x under full sync per size, delta convergence within 2x of
// full's, and zero false Failed verdicts anywhere under the loss plan. The
// checks count rounds and bytes, not wall-clock, so the gate is stable on
// loaded CI machines.
func checkMembershipBaseline(w io.Writer, rows []experiments.MembershipRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base membershipReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("membership baseline %s: %w", path, err)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "membership baseline %d/%s: converge %d detect %d bytes/round %d falseFailed %d\n",
			r.Nodes, r.Mode, r.ConvergeRounds, r.DetectRounds, r.SteadyBytesPerRound, r.FalseFailed)
	}
	if bad := experiments.MembershipRegression(rows, base.Rows); len(bad) > 0 {
		return fmt.Errorf("membership regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// prefixReport is the committed BENCH_prefix.json schema.
type prefixReport struct {
	Study string                  `json:"study"`
	Rows  []experiments.PrefixRow `json:"rows"`
}

// checkPrefixBaseline gates the prefix study. Structural bounds bind on every
// machine: zero announced remote startups on the prefix arms, prefix reads
// actually served, one shared relay upstream with no fallbacks, and the
// prefix+relay arm's origin reads at least 5x under the same run's baseline
// arm (and within 20% of the committed baseline's cut). The startup-P99
// halving binds only at GOMAXPROCS >= 4; below that, the gate relaxes to a
// loose parity bound and says so loudly.
func checkPrefixBaseline(w io.Writer, rows []experiments.PrefixRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base prefixReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("prefix baseline %s: %w", path, err)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "prefix baseline %s: originReads %d startP99 %.1fms remoteStarts %d prefixServed %d upstreams %d\n",
			r.Arm, r.OriginReads, r.StartupP99Ms, r.StartupRemoteFetches, r.PrefixServed, r.RelayUpstreams)
	}
	bad, notes := experiments.PrefixRegression(rows, base.Rows)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	if len(bad) > 0 {
		return fmt.Errorf("prefix regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// chaosReport is the committed BENCH_chaos.json schema.
type chaosReport struct {
	Study string                 `json:"study"`
	Rows  []experiments.ChaosRow `json:"rows"`
}

// checkChaosBaseline compares the current run's defended failed-watch and
// rebuffer rates per schedule against the committed baseline and fails on a
// >20% (plus small absolute slack) regression. Only the defended arms are
// gated: the bare arms exist to show what the defense buys, and their failure
// rates are the fault schedule's, not the code's.
func checkChaosBaseline(w io.Writer, rows []experiments.ChaosRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base chaosReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("chaos baseline %s: %w", path, err)
	}
	if len(base.Rows) == 0 {
		return fmt.Errorf("chaos baseline %s holds no rows to compare", path)
	}
	for _, r := range rows {
		if r.Mode == "defended" {
			fmt.Fprintf(w, "chaos baseline %s: failed %.2f rebuffer %.2f\n", r.Schedule, r.FailedRate, r.RebufferRate)
		}
	}
	if bad := experiments.ChaosRegression(rows, base.Rows); len(bad) > 0 {
		return fmt.Errorf("chaos regression: %s", strings.Join(bad, "; "))
	}
	return nil
}

// mergeReport is the committed BENCH_merge.json schema.
type mergeReport struct {
	Study string                 `json:"study"`
	Rows  []experiments.MergeRow `json:"rows"`
}

// checkMergeBaseline gates the merge study against the committed baseline:
// every pattern measured and merging (structural), and each pattern's
// origin-read saving within 20% of the baseline's (timing) — see
// MergeRegression.
func checkMergeBaseline(w io.Writer, rows []experiments.MergeRow, path string) error {
	base, err := loadBaseline[mergeReport]("merge", path)
	if err != nil {
		return err
	}
	want := experiments.MergeSavings(base.Rows)
	got := experiments.MergeSavings(rows)
	for _, pattern := range slices.Sorted(maps.Keys(want)) {
		fmt.Fprintf(w, "merge baseline %s: saving %.2fx (baseline %.2fx)\n", pattern, got[pattern], want[pattern])
	}
	if bad := experiments.MergeRegression(rows, base.Rows); len(bad) > 0 {
		return fmt.Errorf("merge regression: %s", strings.Join(bad, "; "))
	}
	return nil
}
