package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// Verdicts of one workload × metric comparison: the rule later changes are
// judged by (choosing-metrics guide, sections 6 and 8).
const (
	verdictPass       = "PASS"
	verdictUnresolved = "UNRESOLVED"
	verdictFail       = "FAIL"
)

// readRecords loads an -out file: one untraced run per line.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue // end-to-end metrics always come from untraced runs
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of vals
// with the exclusive method of Python's statistics.quantiles(vals, n=4).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// judge compares the candidate's runs of one metric with the base's. worse is
// how much worse the candidate's median is, as a share of the base's.
func judge(d metricDef, base, cand []float64) (verdict string, worse, spread float64) {
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(cand)
	worse = (cmed - bmed) / bmed
	if d.Better == "higher" {
		worse = -worse
	}
	spread = (bq3 - bq1) / bmed
	if worse > d.Bound {
		return verdictFail, worse, spread
	}
	if spread > d.Bound && !allBetter(d, base, cand) {
		return verdictUnresolved, worse, spread
	}
	return verdictPass, worse, spread
}

// allBetter reports whether every candidate run reads better than every base
// run: the one case a spread wider than the bound still resolves.
func allBetter(d metricDef, base, cand []float64) bool {
	if d.Better == "higher" {
		return slices.Min(cand) > slices.Max(base)
	}
	return slices.Max(cand) < slices.Min(base)
}

func metricValues(recs []record, name string) []float64 {
	var vals []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// compareFiles prints, per workload and watch metric (the bounded end-to-end
// ones and the watch extras with their advisory bound), both medians, the
// ratio with its base, the base's quartile spread and the verdict against the
// metric's bound. It exits 1 if any pairing fails.
func compareFiles(basePath, candPath string) int {
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := readRecords(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(base, cand, basePath, candPath)
}

func compareSets(base, cand map[string][]record, basePath, candPath string) int {
	status := 0
	fmt.Printf("base %s, candidate %s; worse = candidate median vs base median, in the metric's bad direction\n", basePath, candPath)
	for _, w := range workloads {
		b, c := base[w.name], cand[w.name]
		if len(b) == 0 || len(c) == 0 {
			fmt.Printf("== %s: no untraced runs on one side (base %d, candidate %d)\n", w.name, len(b), len(c))
			status = 1
			continue
		}
		fmt.Printf("== %s (base %d runs, candidate %d runs)\n", w.name, len(b), len(c))
		for _, r := range append(append([]record(nil), b...), c...) {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("  a run failed %d of %d watches: its figures do not count\n", r.Failed, r.Attempted)
				status = 1
			}
		}
		for _, d := range slices.Concat(endToEnd, watchExtras) {
			bv, cv := metricValues(b, d.Name), metricValues(c, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Printf("  %-22s missing\n", d.Name)
				status = 1
				continue
			}
			verdict, worse, spread := judge(d, bv, cv)
			_, bmed, _ := quartiles(bv)
			_, cmed, _ := quartiles(cv)
			fmt.Printf("  %-22s base %12.4f  cand %12.4f %-9s ratio %.4f of base  worse %+6.2f%%  bound %4.1f%%  base spread %5.2f%%  %s\n",
				d.Name, bmed, cmed, d.Unit, cmed/bmed, 100*worse, 100*d.Bound, 100*spread, verdict)
			if verdict == verdictFail {
				status = 1
			}
		}
	}
	return status
}
