// Command bench is the repository's one watch benchmark: it drives the shipped
// service (dvod.New + Service.Player over loopback TCP) through five named
// workloads, prints the end-to-end metrics of one run, and with -trace 1 the
// per-layer ladder. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// result is the last line a run prints: the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	out      string
	jsonOnly bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var (
		cfg     config
		trace   int
		compare bool
		spec    bool
	)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one fresh process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the request list is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, layer probes and span files")
	fs.StringVar(&cfg.dir, "dir", "out", "directory for scratch data and span files (created, inside the checkout)")
	fs.StringVar(&cfg.out, "out", "", "append each run's result to this JSON-lines file")
	fs.BoolVar(&cfg.jsonOnly, "json", false, "print only the result line")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	fs.BoolVar(&spec, "describe", false, "print BENCHMARK.json as the workload and metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if spec {
		return printSpec()
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	return runOne(w, cfg)
}

func printSpec() int {
	spec, err := describe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	os.Stdout.Write(spec)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in a fresh process each (peak RSS and set-up are
// per process), untraced and, with -trace, traced as well.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	modes := []int{0}
	if cfg.trace {
		modes = append(modes, 1)
	}
	status := 0
	for _, w := range workloads {
		for _, mode := range modes {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(mode), "-dir", cfg.dir}
			if cfg.out != "" {
				args = append(args, "-out", cfg.out)
			}
			if cfg.jsonOnly {
				args = append(args, "-json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, mode, err)
				status = 1
			}
		}
	}
	return status
}

// runOne is one run of one workload in this process.
func runOne(w *workload, cfg config) int {
	say := func(format string, args ...any) {
		if !cfg.jsonOnly {
			fmt.Printf(format, args...)
		}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	say("== %s  seed %d  window %gs  trace %v  (%d closed-loop clients at %s, loopback TCP, GOMAXPROCS %d, %s)\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, numClients, homeNode, runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runWorkload(w, cfg.seed, cfg.seconds, cfg.dir, tr)
	if res != nil && res.dep != nil {
		defer res.dep.close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	vals := watchValues(res)
	// defs is what the result line carries; shown also lists what a person
	// reads and what -out records.
	defs, shown := endToEnd, slices.Concat(endToEnd, watchExtras)
	if cfg.trace {
		if err := layerValues(res, vals, tr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defs, shown = perLayer, slices.Concat(endToEnd, perLayer)
		path, err := tr.write(cfg.dir, w.name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: span file:", err)
			return 1
		}
		say("spans: %s (%d)\n", path, len(tr.spans))
		for _, tot := range selfTimes(tr.spans) {
			say("  span %-34s n=%-8d total %12.3f ms  self %12.3f ms\n", tot.Name, tot.Count, tot.TotalMS, tot.SelfMS)
		}
	}
	all, missing := collect(shown, vals)
	win := res.window
	out := result{
		Attempted: win.attempted + res.after.attempted,
		Failed:    win.failed + res.after.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		if v, ok := all[d.Name]; ok {
			out.Metrics[d.Name] = v
		}
	}
	out.Correct = out.Failed == 0 && len(res.selfChecks) == 0 && len(missing) == 0
	say("attempted_watches %d  failed_watches %d  window %.3fs  tail = p%g over %d samples\n",
		out.Attempted, out.Failed, win.wall.Seconds(), w.tailPct, len(win.elapsed))
	for _, d := range shown {
		if v, ok := all[d.Name]; ok {
			say("  %-36s %16.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, f := range []string{win.firstFailure, res.after.firstFailure} {
		if f != "" {
			fmt.Fprintln(os.Stderr, "bench: failed watch:", f)
		}
	}
	for _, c := range res.selfChecks {
		fmt.Fprintln(os.Stderr, "bench: self-check:", c)
	}
	for _, m := range missing {
		fmt.Fprintln(os.Stderr, "bench: metric has no value:", m)
	}
	if cfg.out != "" {
		rec := record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: out}
		rec.Metrics = all
		if err := appendRecord(cfg.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		_ = f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// watchValues derives the ten figures of a watch from one run: the bounded
// end-to-end metrics and the watch extras.
func watchValues(res *runResult) map[string]float64 {
	win := res.window
	wall := win.wall.Seconds()
	payload := mib(win.bytes)
	completed := float64(len(win.elapsed))
	return map[string]float64{
		"setup_s":             median(res.setupS),
		"goodput_mib_s":       payload / wall,
		"watches_per_s":       completed / wall,
		"mib_per_cpu_s":       payload / win.cpuS,
		"ttfc_p50_ms":         percentile(win.ttfc, 50),
		"ttfc_tail_ms":        percentile(win.ttfc, res.w.tailPct),
		"watch_p50_ms":        percentile(win.elapsed, 50),
		"watch_tail_ms":       percentile(win.elapsed, res.w.tailPct),
		"wire_bytes_per_byte": float64(win.sumDelta("server.bytes_out")) / float64(win.bytes),
		"peak_rss_mib":        peakRSSMiB(),
	}
}
