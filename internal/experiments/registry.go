package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"dvod/internal/media"
)

// StudyOptions are the knobs vodbench shares across studies. Each study reads
// the ones it uses and ignores the rest.
type StudyOptions struct {
	// Seed drives every seeded study's workload.
	Seed int64
	// Duration and RatePerSec shape Ext-1's request trace.
	Duration   time.Duration
	RatePerSec float64
	// ClassMix is Ext-12's class:weight list (see ParseClassMix).
	ClassMix string
}

// Study is one registry entry: an extension study vodbench runs by name.
type Study struct {
	// Name selects the study with vodbench -study and names its CSV export
	// and its BENCH_<Name>.json baseline.
	Name string
	// Header is the line printed above the study's table.
	Header string
	// Run executes the study and returns its rows, a slice of the study's
	// row type.
	Run func() (rows any, err error)
	// Format renders rows returned by Run as an aligned table.
	Format func(rows any) string
	// Gate checks rows against a committed baseline; nil for the studies
	// that have none.
	Gate Gate
}

// Gate checks a study's rows against a committed BENCH_<study>.json report.
type Gate interface {
	// Load decodes a report into the study's rows. It refuses a report
	// written by another study and one with no rows.
	Load(report []byte) (rows any, err error)
	// Structural returns one message per violated bound that holds on any
	// machine; an empty result passes.
	Structural(current, baseline any) []string
	// Check loads the baseline report and applies the structural bounds,
	// then the wall-clock ones. It prints the notes that announce a relaxed
	// bound to w and returns one error joining every violation.
	Check(w io.Writer, current any, report []byte) error
}

// Studies returns the registry in Ext-1…Ext-20 order, each study bound to o.
func Studies(o StudyOptions) []Study {
	return []Study{
		study("routing", "Ext-1. Routing policy comparison (identical diurnal trace per policy)",
			func() ([]RoutingStudyRow, error) {
				cfg := DefaultRoutingStudyConfig()
				cfg.Seed, cfg.Duration, cfg.RatePerSec = o.Seed, o.Duration, o.RatePerSec
				return RoutingStudy(cfg)
			}, FormatRoutingStudy),
		study("cache", "Ext-2. Cache policy comparison across Zipf skews (20% cache)",
			func() ([]CacheStudyCell, error) {
				cfg := DefaultCacheStudyConfig()
				cfg.Seed = o.Seed
				return CacheStudy(cfg)
			}, FormatCacheStudy),
		study("cluster", "Ext-3. Cluster size vs mid-stream re-routing (congestion injected at 2s)",
			func() ([]ClusterSweepRow, error) {
				cfg := DefaultClusterSweepConfig()
				cfg.Seed = o.Seed
				return ClusterSweep(cfg)
			}, FormatClusterSweep),
		study("striping", "Ext-4. Striping width vs modeled read parallelism (64 MiB title)",
			func() ([]StripingSweepRow, error) {
				title := media.Title{Name: "feature", SizeBytes: 64 << 20, BitrateMbps: 1.5}
				return StripingSweep(title, 256<<10, []int{1, 2, 4, 8, 16})
			}, FormatStripingSweep),
		study("k", "Ext-5. Normalization constant K vs case-study decisions",
			func() ([]KSweepRow, error) { return KSweep([]float64{1, 2, 5, 10, 20, 50, 100}) },
			FormatKSweep),
		study("granularity", "Ext-6. Caching granularity under partial viewing (10-100% watched)",
			func() ([]GranularityRow, error) {
				cfg := DefaultGranularityStudyConfig()
				cfg.Seed = o.Seed
				return GranularityStudy(cfg)
			}, FormatGranularityStudy),
		study("scale", "Ext-7. VRA decision latency vs network size (random topologies)",
			func() ([]ScalabilityRow, error) {
				cfg := DefaultScalabilityStudyConfig()
				cfg.Seed = o.Seed
				return ScalabilityStudy(cfg)
			}, FormatScalabilityStudy),
		study("parallel", "Ext-8. Single-server vs multi-server parallel fetch (8am, 3 replicas)",
			func() ([]ParallelFetchRow, error) { return ParallelFetch(DefaultParallelFetchConfig()) },
			FormatParallelFetch),
		study("blocking", "Ext-9. Admission control: blocking probability vs offered load",
			func() ([]BlockingCell, error) {
				cfg := DefaultBlockingStudyConfig()
				cfg.Seed = o.Seed
				return BlockingStudy(cfg)
			}, FormatBlockingStudy),
		study("placement", "Ext-10. Initial replica placement quality (4pm, skewed demand)",
			func() ([]PlacementStudyRow, error) {
				cfg := DefaultPlacementStudyConfig()
				cfg.Seed = o.Seed
				return PlacementStudy(cfg)
			}, FormatPlacementStudy),
		study("adaptation", "Ext-11. Cache adaptation after a popularity flip (windowed hit ratio)",
			func() ([]AdaptationRow, error) {
				cfg := DefaultAdaptationStudyConfig()
				cfg.Seed = o.Seed
				return AdaptationStudy(cfg)
			}, FormatAdaptationStudy),
		study("admission", "Ext-12. Per-class admission vs best-effort (mix "+o.ClassMix+")",
			func() ([]AdmissionCell, error) {
				mix, err := ParseClassMix(o.ClassMix)
				if err != nil {
					return nil, err
				}
				cfg := DefaultAdmissionStudyConfig()
				cfg.Seed, cfg.Mix = o.Seed, mix
				return AdmissionStudy(cfg)
			}, FormatAdmissionStudy),
		gated(study("framing", "Ext-13. Binary vs kernel cluster delivery (live TCP, single node)",
			func() ([]FramingRow, error) { return FramingStudy(DefaultFramingStudyConfig()) },
			FormatFramingStudy), FramingStructural, FramingTiming),
		gated(study("merge", "Ext-14. Shared-prefix stream merging vs unicast (concurrent watchers, remote origin)",
			func() ([]MergeRow, error) {
				cfg := DefaultMergeStudyConfig()
				cfg.Seed = o.Seed
				return MergeStudy(cfg)
			}, FormatMergeStudy), MergeStructural, MergeTiming),
		gated(study("chaos", "Ext-15. Fault injection: defended vs bare delivery plane (canned schedules)",
			func() ([]ChaosRow, error) {
				cfg := DefaultChaosStudyConfig()
				cfg.Seed = o.Seed
				return ChaosStudy(cfg)
			}, FormatChaosStudy), ChaosStructural, ChaosTiming),
		gated(study("ledger", "Ext-16. Link admission: per-server vs ledger-backed brokers (contended trunk)",
			func() ([]LedgerRow, error) {
				cfg := DefaultLedgerStudyConfig()
				cfg.Seed = o.Seed
				return LedgerStudy(cfg)
			}, FormatLedgerStudy), LedgerStructural, nil),
		gated(study("churn", "Ext-17. Elastic membership: watches through join / drain / kill",
			func() ([]ChurnRow, error) {
				cfg := DefaultChurnStudyConfig()
				cfg.Seed = o.Seed
				return ChurnStudy(cfg)
			}, FormatChurnStudy), ChurnStructural, nil),
		gated(study("contention", "Ext-18. Hot-path contention: sharded admission + lock-free reads",
			func() ([]ContentionRow, error) { return ContentionStudy(DefaultContentionStudyConfig()) },
			FormatContentionStudy), ContentionStructural, ContentionTiming),
		gated(study("membership", "Ext-19. WAN membership: delta-sync gossip vs full views under loss",
			func() ([]MembershipRow, error) {
				cfg := DefaultMembershipStudyConfig()
				cfg.Seed = o.Seed
				return MembershipStudy(cfg)
			}, FormatMembershipStudy), MembershipStructural, nil),
		gated(study("prefix", "Ext-20. Prefix replication tier + cohort relays under a flash crowd",
			func() ([]PrefixRow, error) { return PrefixStudy(DefaultPrefixStudyConfig()) },
			FormatPrefixStudy), PrefixStructural, PrefixTiming),
	}
}

// study builds an ungated entry whose rows are a []R.
func study[R any](name, header string, run func() ([]R, error), format func([]R) string) Study {
	return Study{
		Name:   name,
		Header: header,
		Run:    func() (any, error) { return run() },
		Format: func(rows any) string { return format(rows.([]R)) },
	}
}

// gated adds a gate to s: structural bounds that hold on any machine, then,
// when timing is not nil, wall-clock bounds.
func gated[R any](s Study, structural func(current, baseline []R) []string,
	timing func(current, baseline []R) (bad, notes []string)) Study {
	s.Gate = gate[R]{study: s.Name, structural: structural, timing: timing}
	return s
}

// Report renders rows returned by s.Run as the BENCH_<s.Name>.json report
// s.Gate loads.
func (s Study) Report(rows any) ([]byte, error) {
	data, err := json.MarshalIndent(report[any]{Study: s.Name, Rows: rows}, "", "  ")
	return append(data, '\n'), err
}

// report is the schema of every BENCH_<study>.json file.
type report[T any] struct {
	Study string `json:"study"`
	Rows  T      `json:"rows"`
}

// gate is the Gate of a study whose rows are a []R.
type gate[R any] struct {
	study      string
	structural func(current, baseline []R) []string
	timing     func(current, baseline []R) (bad, notes []string)
}

func (g gate[R]) Load(data []byte) (any, error) { return g.load(data) }

func (g gate[R]) load(data []byte) ([]R, error) {
	var r report[[]R]
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s baseline: %w", g.study, err)
	}
	if r.Study != g.study {
		return nil, fmt.Errorf("%s baseline was written by study %q", g.study, r.Study)
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("%s baseline has an empty rows list", g.study)
	}
	return r.Rows, nil
}

func (g gate[R]) Structural(current, baseline any) []string {
	return g.structural(current.([]R), baseline.([]R))
}

// bounds returns every violation of current against baseline, structural
// first, plus the timing half's notes.
func (g gate[R]) bounds(current, baseline []R) (bad, notes []string) {
	bad = g.structural(current, baseline)
	if g.timing == nil {
		return bad, nil
	}
	timing, notes := g.timing(current, baseline)
	return append(bad, timing...), notes
}

func (g gate[R]) Check(w io.Writer, current any, data []byte) error {
	baseline, err := g.load(data)
	if err != nil {
		return err
	}
	bad, notes := g.bounds(current.([]R), baseline)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s regression: %s", g.study, strings.Join(bad, "; "))
	}
	fmt.Fprintf(w, "%s baseline check passed\n", g.study)
	return nil
}
