package main

import "encoding/json"

// runSeconds is the window length BENCHMARK.json asks the driver to pass:
// 114 runs of it, with three set-ups each and two cold builds, fit the
// driver's 3420 s with room for a slower box.
const runSeconds = 15

// benchmarkSpec is the shape of BENCHMARK.json, exactly the keys the driver's
// contract names.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec carries a bound only for end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// describe renders BENCHMARK.json from the workload and metric tables, so the
// file cannot drift from what a run prints (bench_test.go compares them).
func describe() ([]byte, error) {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metricSpec{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
