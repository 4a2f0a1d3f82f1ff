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
//	Ext-13 -study framing   binary vs kernel cluster delivery over live TCP
//	Ext-14 -study merge     shared-prefix stream merging vs unicast delivery
//	Ext-15 -study chaos     fault injection: defended vs bare delivery plane
//	Ext-16 -study ledger    per-server vs ledger-backed link admission
//	Ext-17 -study churn     elastic membership: join / drain / kill lifecycle
//	Ext-18 -study contention sharded admission + lock-free read hot paths
//	Ext-19 -study membership WAN membership: delta-sync gossip at fleet scale
//	Ext-20 -study prefix    prefix replication tier + cohort relays (flash crowd)
//	       -study all       everything (default)
//
// Ext-13 to Ext-20 are gated studies: -out DIR writes each one that ran as
// DIR/BENCH_<study>.json, and -baseline DIR checks each one that ran against
// DIR/BENCH_<study>.json and exits 1 on any violated bound.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dvod/internal/experiments"
)

// options are vodbench's flags.
type options struct {
	experiments.StudyOptions
	study, csvDir, outDir, baselineDir string
}

func main() {
	var o options
	flag.StringVar(&o.study, "study", "all", strings.Join(studyNames(false), " | ")+" | all")
	flag.Int64Var(&o.Seed, "seed", 1, "random seed for workload generation")
	flag.DurationVar(&o.Duration, "duration", time.Hour, "simulated trace duration (routing study)")
	flag.Float64Var(&o.RatePerSec, "rate", 0.02, "request arrivals per second (routing study)")
	flag.StringVar(&o.ClassMix, "class-mix", "premium:0.2,standard:0.5,background:0.3",
		"class:weight list for the admission study")
	flag.StringVar(&o.csvDir, "csv", "", "also write each study's rows as CSV into `DIR`")
	flag.StringVar(&o.outDir, "out", "",
		"write each gated study's rows as a JSON baseline to `DIR`/BENCH_<study>.json (gated studies: "+
			strings.Join(studyNames(true), ", ")+")")
	flag.StringVar(&o.baselineDir, "baseline", "",
		"gate each gated study against `DIR`/BENCH_<study>.json and fail on any violated bound")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
}

// studyNames lists the registered studies in Ext order, only the gated ones
// when gated is set.
func studyNames(gated bool) []string {
	var names []string
	for _, s := range experiments.Studies(experiments.StudyOptions{}) {
		if !gated || s.Gate != nil {
			names = append(names, s.Name)
		}
	}
	return names
}

// selectStudies returns the studies -study names: one, or all of them.
func selectStudies(o options) ([]experiments.Study, error) {
	studies := experiments.Studies(o.StudyOptions)
	if o.study == "all" {
		return studies, nil
	}
	for _, s := range studies {
		if s.Name == o.study {
			return []experiments.Study{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown study %q: want one of %s, or all", o.study, strings.Join(studyNames(false), ", "))
}

func run(w io.Writer, o options) error {
	studies, err := selectStudies(o)
	if err != nil {
		return err
	}
	gated := slices.ContainsFunc(studies, func(s experiments.Study) bool { return s.Gate != nil })
	if (o.outDir != "" || o.baselineDir != "") && !gated {
		return fmt.Errorf("-out and -baseline apply to the gated studies (%s), and -study %s has no gate",
			strings.Join(studyNames(true), ", "), o.study)
	}
	for _, s := range studies {
		rows, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, s.Header)
		fmt.Fprintln(w, s.Format(rows))
		if o.csvDir != "" {
			if err := writeCSV(filepath.Join(o.csvDir, s.Name+".csv"), rows); err != nil {
				return err
			}
		}
		if s.Gate == nil {
			continue
		}
		file := "BENCH_" + s.Name + ".json"
		if o.baselineDir != "" {
			path := filepath.Join(o.baselineDir, file)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := s.Gate.Check(w, rows, data); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
		if o.outDir != "" {
			data, err := s.Report(rows)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(o.outDir, file), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV writes rows to path, creating its directory.
func writeCSV(path string, rows any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteRowsCSV(f, rows)
}
