package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"dvod/internal/admission"
	"dvod/internal/db"
	"dvod/internal/media"
	"dvod/internal/topology"
)

// --- Ext-18: hot-path contention study ---------------------------------------

// Ext-18 measures the sharded admission and catalog hot paths under the
// million-session concurrency model: W goroutines hammer the broker's full
// admit-then-release cycle over distinct spoke links while reader goroutines
// simultaneously spin on the lock-free db.Snapshot and catalog HoldersView
// path, per broker shard count. The committed baseline records the machine's
// GOMAXPROCS alongside every row because shard scaling is a parallelism
// effect: on a single-core box every shard count serializes identically, so
// the timing gate (ContentionTiming) enforces the absolute
// admissions/sec floor everywhere but only tightens the scaling bound to what
// the baseline machine actually demonstrated.

// ContentionFloorAdmissionsPerSec is the absolute throughput floor the
// max-shard cell must clear on any machine — the "≥100k admissions/sec
// single node" claim of the sharding work, with wide margin below measured
// single-core reality (~2.5M/sec) so a loaded CI runner cannot flake it.
const ContentionFloorAdmissionsPerSec = 100_000

// ContentionParallelScalingFloor is the minimum 1→max-shard speedup demanded
// of a run at GOMAXPROCS ≥ 4 when the committed baseline cannot set the
// bound because it was itself measured below 4 procs, where shard scaling
// cannot manifest. The floor asserts that sharding shows *some* parallel
// benefit without guessing how much this particular machine can demonstrate;
// regenerating the baseline on a multi-core runner replaces it with the
// self-tightening 80%-of-baseline bound.
const ContentionParallelScalingFloor = 1.1

// ContentionStudyConfig parameterizes Ext-18.
type ContentionStudyConfig struct {
	// Shards lists the broker shard counts to sweep, ascending. The scaling
	// ratio compares the last entry against the first.
	Shards []int
	// Workers is the number of concurrent admitting goroutines per cell;
	// OpsPerWorker the admit/release cycles each performs.
	Workers      int
	OpsPerWorker int
	// Links is the spoke count of the hub topology — the distinct link IDs
	// admissions reserve over, which is what spreads shard locks.
	Links int
	// Titles is the catalog size the reader goroutines sweep; Readers how
	// many goroutines spin on Snapshot+HoldersView during the storm.
	Titles  int
	Readers int
}

// DefaultContentionStudyConfig sweeps 1→8 shards with 8 workers × 20k cycles
// over 64 links, 2 readers over a 64-title catalog — ~160k admissions per
// cell, enough that per-cell wall clock dominates timer noise while the whole
// sweep stays under a second of CPU.
func DefaultContentionStudyConfig() ContentionStudyConfig {
	return ContentionStudyConfig{
		Shards:       []int{1, 2, 4, 8},
		Workers:      8,
		OpsPerWorker: 20_000,
		Links:        64,
		Titles:       64,
		Readers:      2,
	}
}

// ContentionRow is one shard count's measured cell.
type ContentionRow struct {
	// Shards is the broker shard count; Workers and Procs record the offered
	// concurrency and the GOMAXPROCS it actually ran on.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	Procs   int `json:"procs"`
	// Admissions counts completed admit+release cycles; AdmissionsPerSec is
	// the wall-clock rate.
	Admissions       int64   `json:"admissions"`
	DurationSec      float64 `json:"durationSec"`
	AdmissionsPerSec float64 `json:"admissionsPerSec"`
	// SnapshotReads counts Snapshot+HoldersView pairs the readers completed
	// during the admission storm — the lock-free read path staying live under
	// write load.
	SnapshotReads       int64   `json:"snapshotReads"`
	SnapshotReadsPerSec float64 `json:"snapshotReadsPerSec"`
}

// ContentionStudy runs Ext-18 and returns one row per configured shard count.
func ContentionStudy(cfg ContentionStudyConfig) ([]ContentionRow, error) {
	switch {
	case len(cfg.Shards) == 0:
		return nil, errors.New("contention study: no shard counts")
	case cfg.Workers <= 0 || cfg.OpsPerWorker <= 0:
		return nil, errors.New("contention study: need positive workers and ops")
	case cfg.Links <= 0 || cfg.Titles <= 0 || cfg.Readers < 0:
		return nil, errors.New("contention study: bad topology or reader counts")
	}
	for i, s := range cfg.Shards {
		if s <= 0 {
			return nil, fmt.Errorf("contention study: shard count %d must be positive", s)
		}
		if i > 0 && s <= cfg.Shards[i-1] {
			return nil, errors.New("contention study: shard counts must ascend")
		}
	}

	g := topology.NewGraph()
	if err := g.AddNode("hub"); err != nil {
		return nil, err
	}
	links := make([]topology.LinkID, 0, cfg.Links)
	for i := 0; i < cfg.Links; i++ {
		node := topology.NodeID(fmt.Sprintf("s%03d", i))
		if err := g.AddNode(node); err != nil {
			return nil, err
		}
		id, err := g.AddLink("hub", node, 1e9)
		if err != nil {
			return nil, err
		}
		links = append(links, id)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d := db.New(g)
	titles := make([]string, cfg.Titles)
	for i := range titles {
		titles[i] = fmt.Sprintf("title-%03d", i)
		err := d.Catalog().AddTitle(media.Title{Name: titles[i], SizeBytes: 1 << 20, BitrateMbps: 4})
		if err != nil {
			return nil, err
		}
		if err := d.SetHolding("hub", titles[i], true, time.Unix(0, 0)); err != nil {
			return nil, err
		}
	}

	// Untimed warm-up: the first timed cell must not pay process cold-start
	// (scheduler spin-up, allocator growth) that the later cells don't, or
	// the 1→N speedup inherits a warm-up artifact.
	warm := cfg
	if warm.OpsPerWorker > 2000 {
		warm.OpsPerWorker = 2000
	}
	if _, err := contentionCell(warm, d, links, titles, cfg.Shards[0]); err != nil {
		return nil, fmt.Errorf("contention study warm-up: %w", err)
	}

	var out []ContentionRow
	for _, shards := range cfg.Shards {
		row, err := contentionCell(cfg, d, links, titles, shards)
		if err != nil {
			return nil, fmt.Errorf("contention study shards=%d: %w", shards, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// contentionCell measures one shard count: workers admit+release over the
// shared db's snapshot while readers spin on the lock-free read path.
func contentionCell(cfg ContentionStudyConfig, d *db.DB, links []topology.LinkID,
	titles []string, shards int) (ContentionRow, error) {
	row := ContentionRow{Shards: shards, Workers: cfg.Workers, Procs: runtime.GOMAXPROCS(0)}
	br, err := admission.New(admission.Config{
		Node:         "hub",
		CapacityMbps: 1e12,
		MaxSessions:  1 << 30,
		Shards:       shards,
		Snapshot:     d.Snapshot,
	})
	if err != nil {
		return row, err
	}

	stop := make(chan struct{})
	var reads atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < cfg.Readers; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Snapshot(); err != nil {
					return
				}
				if _, err := d.Catalog().HoldersView(titles[(r+i)%len(titles)]); err != nil {
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := []topology.LinkID{links[w%len(links)]}
			for i := 0; i < cfg.OpsPerWorker; i++ {
				grant, err := br.Admit(admission.Request{
					Class:       admission.Premium,
					BitrateMbps: 4,
					Links:       route,
				})
				if err != nil {
					errs[w] = err
					return
				}
				br.Release(grant)
			}
		}(w)
	}
	wg.Wait()
	row.DurationSec = time.Since(start).Seconds()
	close(stop)
	readers.Wait()
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}
	// Structural drain check: a cell that leaks bandwidth or sessions is a
	// broken measurement, not a slow one.
	if c := br.CommittedMbps(); c != 0 {
		return row, fmt.Errorf("leaked %g Mbps committed after drain", c)
	}
	if s := br.Sessions(); s != 0 {
		return row, fmt.Errorf("leaked %d sessions after drain", s)
	}
	row.Admissions = int64(cfg.Workers) * int64(cfg.OpsPerWorker)
	if row.DurationSec > 0 {
		row.AdmissionsPerSec = float64(row.Admissions) / row.DurationSec
	}
	row.SnapshotReads = reads.Load()
	if row.DurationSec > 0 {
		row.SnapshotReadsPerSec = float64(row.SnapshotReads) / row.DurationSec
	}
	return row, nil
}

// contentionScaling returns last-row over first-row admissions/sec — the
// 1→max shard speedup — and false when it cannot be computed.
func contentionScaling(rows []ContentionRow) (float64, bool) {
	if len(rows) < 2 || rows[0].AdmissionsPerSec <= 0 {
		return 0, false
	}
	return rows[len(rows)-1].AdmissionsPerSec / rows[0].AdmissionsPerSec, true
}

// ContentionStructural returns the Ext-18 bounds that hold on any machine:
// the run produced rows, the baseline has rows and every baseline shard
// count is still measured, and the concurrent lock-free read path made
// progress (zero snapshot reads during the storm means the read path wedged
// behind the writers).
func ContentionStructural(current, baseline []ContentionRow) (bad []string) {
	if len(current) == 0 {
		return []string{"contention run produced no rows"}
	}
	if len(baseline) == 0 {
		bad = append(bad, "contention baseline holds no rows to compare")
	}
	byShards := make(map[int]bool, len(current))
	for _, r := range current {
		byShards[r.Shards] = true
	}
	for _, b := range baseline {
		if !byShards[b.Shards] {
			bad = append(bad, fmt.Sprintf("baseline shard count %d missing from current run", b.Shards))
		}
	}
	if current[len(current)-1].SnapshotReads == 0 {
		bad = append(bad, "lock-free read path made zero progress during the admission storm")
	}
	return bad
}

// ContentionTiming returns Ext-18's wall-clock bounds, none for an empty run,
// plus notes — warnings about what it could not check, so a weakened bound
// is always loud, never silent. Shard scaling is a parallelism effect — a
// single-core machine runs every shard count at the same rate — so the rate
// bounds are proc-aware:
//
//   - absolute floor, always enforced: the max-shard cell must clear
//     ContentionFloorAdmissionsPerSec.
//   - scaling, self-tightening: the current 1→max shard speedup must reach
//     80% of whatever the baseline machine demonstrated, capped at 3× —
//     regenerating the baseline on a many-core box tightens the bound toward
//     the 3× target. Skipped below GOMAXPROCS 4, where the speedup cannot
//     manifest. A baseline itself measured below GOMAXPROCS 4 demonstrated
//     nothing about scaling, so the gate refuses to derive the bound from it:
//     it emits a loud warning telling maintainers to regenerate the baseline
//     on a multi-core runner and holds a ≥4-proc current run to the fixed
//     ContentionParallelScalingFloor instead.
//   - throughput, matched machines only: when current and baseline ran at
//     the same GOMAXPROCS, the max-shard rate must be within 20% of the
//     baseline's. Cross-machine wall-clock comparisons flake, so mismatched
//     GOMAXPROCS falls back to the absolute floor alone.
func ContentionTiming(current, baseline []ContentionRow) (bad, notes []string) {
	if len(current) == 0 {
		return nil, nil
	}
	cur := current[len(current)-1]
	if cur.AdmissionsPerSec < ContentionFloorAdmissionsPerSec {
		bad = append(bad, fmt.Sprintf(
			"max-shard cell (shards=%d) ran %.0f admissions/sec, floor is %d",
			cur.Shards, cur.AdmissionsPerSec, ContentionFloorAdmissionsPerSec))
	}
	baselineCanScale := false
	if len(baseline) > 0 {
		baseProcs := baseline[len(baseline)-1].Procs
		baselineCanScale = baseProcs >= 4
		if !baselineCanScale {
			notes = append(notes, fmt.Sprintf(
				"WARNING: contention baseline was measured at GOMAXPROCS %d (< 4), where shard "+
					"scaling cannot manifest; refusing to derive the scaling bound from it. "+
					"Regenerate BENCH_contention.json on a runner with ≥ 4 cores to restore the "+
					"self-tightening gate.", baseProcs))
		}
	}
	if scaling, ok := contentionScaling(current); ok && cur.Procs >= 4 {
		if baseScaling, ok := contentionScaling(baseline); ok && baselineCanScale {
			want := 0.8 * baseScaling
			if want > 3.0 {
				want = 3.0
			}
			if scaling < want {
				bad = append(bad, fmt.Sprintf(
					"1→%d shard speedup %.2fx, want ≥ %.2fx (baseline showed %.2fx at GOMAXPROCS %d)",
					cur.Shards, scaling, want, baseScaling, baseline[len(baseline)-1].Procs))
			}
		} else if scaling < ContentionParallelScalingFloor {
			bad = append(bad, fmt.Sprintf(
				"1→%d shard speedup %.2fx at GOMAXPROCS %d, below the fixed parallel floor %.2fx "+
					"(baseline cannot set the bound)",
				cur.Shards, scaling, cur.Procs, ContentionParallelScalingFloor))
		}
	}
	if len(baseline) > 0 {
		base := baseline[len(baseline)-1]
		if base.Shards == cur.Shards && base.Procs == cur.Procs &&
			cur.AdmissionsPerSec < 0.8*base.AdmissionsPerSec {
			bad = append(bad, fmt.Sprintf(
				"max-shard throughput %.0f/sec regressed >20%% from baseline %.0f/sec at matched GOMAXPROCS %d",
				cur.AdmissionsPerSec, base.AdmissionsPerSec, cur.Procs))
		}
	}
	return bad, notes
}

// FormatContentionStudy renders Ext-18 as an aligned table.
func FormatContentionStudy(rows []ContentionRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Shards\tWorkers\tProcs\tAdmissions\tAdm/sec\tReads/sec")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.0f\n",
			r.Shards, r.Workers, r.Procs, r.Admissions, r.AdmissionsPerSec, r.SnapshotReadsPerSec)
	}
	if scaling, ok := contentionScaling(rows); ok {
		fmt.Fprintf(w, "\t\t\t\t1→%d speedup\t%.2fx\n", rows[len(rows)-1].Shards, scaling)
	}
	_ = w.Flush()
	return b.String()
}
