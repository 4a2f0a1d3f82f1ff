package main

import (
	"math"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported figure. The two tables below are the single
// source of the metric set: the printed rows, BENCHMARK.json and REFERENCE.json
// are all checked against them (bench_test.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer).
	Bound float64
	// Layer and Moves annotate a per-layer metric: the package it belongs to
	// and the end-to-end metric (and workload) a change to it should move.
	Layer string
	Moves string
}

// endToEnd are the bounded figures: what a viewer or an operator sees,
// measured with tracing off. The sandbox's own speed drifts by 10-25% over
// minutes (README.md, Pitfalls), more than the contract's largest bound of
// 25%, so only the timings that stayed inside it in every set of runs taken
// while sizing are bounded here: time to first cluster and goodput. The byte
// and memory figures repeat to a few percent and keep tighter bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_mib_s", Unit: "MiB/s", Better: "higher", Bound: 0.25},
	{Name: "ttfc_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_byte", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// watchExtras are the other five figures of a watch. They are computed and
// printed by every run, but their spread between identical runs reached
// 25-38% on some workload (tails, and CPU time on the idle tiered_relay), so
// the driver sees them unbounded, at the head of the per-layer list. Bound is
// advisory: -compare judges them by it.
var watchExtras = []metricDef{
	{Name: "watches_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "watch", Moves: "goodput_mib_s / bytes per watch"},
	{Name: "mib_per_cpu_s", Unit: "MiB/CPU-s", Better: "higher", Bound: 0.25, Layer: "watch", Moves: "ROADMAP's MB/s per core"},
	{Name: "ttfc_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "watch", Moves: "the workload's tail percentile of ttfc"},
	{Name: "watch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "watch", Moves: "median whole-watch time"},
	{Name: "watch_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "watch", Moves: "the workload's tail percentile of whole-watch time"},
}

// perLayer is everything a traced run reports: the watch extras, then the
// ladder.
var perLayer = slices.Concat(watchExtras, ladder)

// ladder is the layer-by-layer part: probe timings are the median time of one
// call into the layer's public function from outside, counts are counter
// deltas over the window.
var ladder = []metricDef{
	{Name: "disk.read_into_us", Unit: "us", Better: "lower", Layer: "disk", Moves: "goodput_mib_s on origin_pull, dma_churn"},
	{Name: "disk.read_into_contended_us", Unit: "us", Better: "lower", Layer: "disk", Moves: "goodput_mib_s on origin_pull, dma_churn"},
	{Name: "disk.fileref_us", Unit: "us", Better: "lower", Layer: "disk", Moves: "goodput_mib_s on edge_hit"},
	{Name: "disk.write_block_us", Unit: "us", Better: "lower", Layer: "disk", Moves: "ttfc_tail_ms on dma_churn"},
	{Name: "striping.read_part_us", Unit: "us", Better: "lower", Layer: "striping", Moves: "goodput_mib_s on origin_pull"},
	{Name: "striping.part_fileref_us", Unit: "us", Better: "lower", Layer: "striping", Moves: "goodput_mib_s on edge_hit"},
	{Name: "striping.write_title_ms", Unit: "ms", Better: "lower", Layer: "striping", Moves: "ttfc_tail_ms, goodput_mib_s on dma_churn"},
	{Name: "striping.delete_title_us", Unit: "us", Better: "lower", Layer: "striping", Moves: "ttfc_tail_ms, goodput_mib_s on dma_churn"},
	{Name: "media.content_mib_s", Unit: "MiB/s", Better: "higher", Layer: "media", Moves: "setup_s everywhere, striping.write_title_ms"},
	{Name: "media.verify_mib_s", Unit: "MiB/s", Better: "higher", Layer: "media", Moves: "setup_s only"},
	{Name: "cache.on_request_hit_ns", Unit: "ns", Better: "lower", Layer: "cache", Moves: "watches_per_s on session_churn, goodput_mib_s on edge_hit"},
	{Name: "cache.on_request_admit_ms", Unit: "ms", Better: "lower", Layer: "cache", Moves: "ttfc_tail_ms on dma_churn"},
	{Name: "cache.resident_ns", Unit: "ns", Better: "lower", Layer: "cache", Moves: "watches_per_s on session_churn, goodput_mib_s on edge_hit"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "cache", Moves: "wire_bytes_per_byte on dma_churn"},
	{Name: "cache.admissions_per_kwatch", Unit: "count", Better: "lower", Layer: "cache", Moves: "ttfc_tail_ms on dma_churn"},
	{Name: "cache.evictions_per_kwatch", Unit: "count", Better: "lower", Layer: "cache", Moves: "ttfc_tail_ms on dma_churn"},
	{Name: "catalog.holders_view_ns", Unit: "ns", Better: "lower", Layer: "catalog", Moves: "ttfc_p50_ms on origin_pull, watches_per_s on session_churn"},
	{Name: "db.snapshot_ns", Unit: "ns", Better: "lower", Layer: "db", Moves: "ttfc_p50_ms on origin_pull, watches_per_s on session_churn"},
	{Name: "db.set_holding_us", Unit: "us", Better: "lower", Layer: "db", Moves: "ttfc_tail_ms on dma_churn"},
	{Name: "core.plan_us", Unit: "us", Better: "lower", Layer: "core", Moves: "goodput_mib_s on origin_pull, watches_per_s on session_churn"},
	{Name: "core.plan_bandwidth_us", Unit: "us", Better: "lower", Layer: "core", Moves: "watches_per_s on session_churn"},
	{Name: "routing.dijkstra_us", Unit: "us", Better: "lower", Layer: "routing", Moves: "goodput_mib_s on origin_pull, watches_per_s on session_churn"},
	{Name: "admission.admit_release_us", Unit: "us", Better: "lower", Layer: "admission", Moves: "watches_per_s, ttfc_p50_ms on session_churn"},
	{Name: "admission.admit_shared_us", Unit: "us", Better: "lower", Layer: "admission", Moves: "watch_p50_ms on tiered_relay"},
	{Name: "admission.admitted_per_watch", Unit: "count", Better: "lower", Layer: "admission", Moves: "watches_per_s on session_churn"},
	{Name: "admission.rejected", Unit: "count", Better: "lower", Layer: "admission", Moves: "failed watches anywhere"},
	{Name: "ledger.reserve_release_us", Unit: "us", Better: "lower", Layer: "ledger", Moves: "watches_per_s on session_churn"},
	{Name: "ledger.sync_round_us", Unit: "us", Better: "lower", Layer: "ledger", Moves: "watches_per_s on session_churn"},
	{Name: "ledger.gossip_rounds", Unit: "count", Better: "lower", Layer: "ledger", Moves: "watches_per_s on session_churn"},
	{Name: "membership.route_ns", Unit: "ns", Better: "lower", Layer: "membership", Moves: "watches_per_s on session_churn"},
	{Name: "membership.bytes_out_per_s", Unit: "B/s", Better: "lower", Layer: "membership", Moves: "watches_per_s on session_churn"},
	{Name: "transport.dial_hello_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "ttfc_p50_ms everywhere, watches_per_s on session_churn"},
	{Name: "transport.ctl_codec_ns", Unit: "ns", Better: "lower", Layer: "transport", Moves: "ttfc_p50_ms everywhere, watches_per_s on session_churn"},
	{Name: "transport.write_cluster_copy_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "goodput_mib_s on origin_pull, dma_churn"},
	{Name: "transport.write_cluster_kernel_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "goodput_mib_s, mib_per_cpu_s on edge_hit"},
	{Name: "transport.read_frame_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "goodput_mib_s on origin_pull, dma_churn"},
	{Name: "transport.kernel_send_share", Unit: "ratio", Better: "higher", Layer: "transport", Moves: "mib_per_cpu_s on edge_hit"},
	{Name: "transport.pool_hit_ratio", Unit: "ratio", Better: "higher", Layer: "transport", Moves: "mib_per_cpu_s, peak_rss_mib"},
	{Name: "merge.fanout_us_per_cluster", Unit: "us", Better: "lower", Layer: "merge", Moves: "watch_p50_ms on tiered_relay"},
	{Name: "merge.sessions_merged_per_watch", Unit: "count", Better: "higher", Layer: "merge", Moves: "wire_bytes_per_byte on tiered_relay"},
	{Name: "merge.disk_reads_saved_per_watch", Unit: "count", Better: "higher", Layer: "merge", Moves: "wire_bytes_per_byte on tiered_relay"},
	{Name: "prefix.lookup_ns", Unit: "ns", Better: "lower", Layer: "prefix", Moves: "ttfc_p50_ms on tiered_relay"},
	{Name: "prefix.solve_us", Unit: "us", Better: "lower", Layer: "prefix", Moves: "setup_s on tiered_relay"},
	{Name: "prefix.resolve_ms", Unit: "ms", Better: "lower", Layer: "prefix", Moves: "setup_s on tiered_relay"},
	{Name: "prefix.reads_per_watch", Unit: "count", Better: "higher", Layer: "prefix", Moves: "ttfc_p50_ms on tiered_relay"},
	{Name: "server.cluster_get_us", Unit: "us", Better: "lower", Layer: "server", Moves: "goodput_mib_s on origin_pull, watches_per_s on session_churn"},
	{Name: "server.cluster_get_reuse_us", Unit: "us", Better: "lower", Layer: "server", Moves: "what peer-connection reuse could save on origin_pull"},
	{Name: "server.watch_1c_us", Unit: "us", Better: "lower", Layer: "server", Moves: "watches_per_s on session_churn"},
	{Name: "server.titles_us", Unit: "us", Better: "lower", Layer: "server", Moves: "none (control-plane floor)"},
	{Name: "server.remote_clusters_per_watch", Unit: "count", Better: "lower", Layer: "server", Moves: "wire_bytes_per_byte on origin_pull, dma_churn"},
	{Name: "server.disk_reads_per_watch", Unit: "count", Better: "lower", Layer: "server", Moves: "wire_bytes_per_byte on tiered_relay"},
	{Name: "server.hedges_per_kwatch", Unit: "count", Better: "lower", Layer: "server", Moves: "watch_tail_ms on origin_pull"},
	{Name: "server.fetch_retries", Unit: "count", Better: "lower", Layer: "server", Moves: "failed watches on origin_pull"},
	{Name: "server.relay_upstreams_per_watch", Unit: "count", Better: "lower", Layer: "server", Moves: "watch_p50_ms, wire_bytes_per_byte on tiered_relay"},
	{Name: "server.relay_fallbacks", Unit: "count", Better: "lower", Layer: "server", Moves: "watch_p50_ms, wire_bytes_per_byte on tiered_relay"},
	{Name: "client.cluster_gap_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "goodput_mib_s on edge_hit, origin_pull, dma_churn"},
	{Name: "client.startup_share", Unit: "ratio", Better: "lower", Layer: "client", Moves: "tells setup-bound from stream-bound"},
	{Name: "client.stalls_per_kwatch", Unit: "count", Better: "lower", Layer: "client", Moves: "watch_tail_ms anywhere"},
	{Name: "client.resumes_per_kwatch", Unit: "count", Better: "lower", Layer: "client", Moves: "watch_tail_ms on dma_churn"},
	{Name: "runtime.cpu_util", Unit: "ratio", Better: "higher", Layer: "runtime", Moves: "read before calling a throughput fall a cost"},
	{Name: "runtime.allocs_per_watch", Unit: "count", Better: "lower", Layer: "runtime", Moves: "mib_per_cpu_s, peak_rss_mib"},
	{Name: "runtime.alloc_kib_per_watch", Unit: "KiB", Better: "lower", Layer: "runtime", Moves: "mib_per_cpu_s, peak_rss_mib"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "ttfc_tail_ms, watch_tail_ms"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "none"},
	{Name: "bench.window_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "none"},
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect looks every definition up in vals; a definition with no value is a
// harness bug, reported by the caller.
func collect(defs []metricDef, vals map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// percentile returns the nearest-rank q-th percentile (q in (0,100]) of an
// ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median sorts vals in place and returns the middle value.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
