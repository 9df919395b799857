package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root lists exactly these (TestBenchmarkJSONAgrees pins the two against
// each other); bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the twelve numbers a user of the service sees. Every
// workload reports every one of them: a workload that does not exercise a
// metric in its scan loop takes it from the tail every repetition runs on
// the state the loop left (see workloads.go), so no pairing reads zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"timeline_s", "s", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"scan_late_p50_ms", "ms", "lower", 0.25},
	{"ckpt_p50_ms", "ms", "lower", 0.25},
	{"ckpt_mb_per_scan", "MB", "lower", 0.05},
	{"resume_s", "s", "lower", 0.25},
	{"tga_round_p50_ms", "ms", "lower", 0.25},
	{"dns_qps", "1/s", "higher", 0.25},
	{"dns_p50_ns", "ns", "lower", 0.25},
	{"http_qps", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// tgaGens are the five bundled generators in chain order; their names
// key the tga.<gen>.* per-layer metrics.
var tgaGens = []string{"dc", "sixtree", "sixgraph", "sixgan", "sixveclm"}

// perLayer are the traced run's single-layer numbers, in the order of
// the README's per-layer table. They carry no bound.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead_pct", "%", "lower", 0},
		{"bench.rep_spread_pct", "%", "lower", 0},
		{"worldgen.generate_ms", "ms", "lower", 0},
		{"worldgen.buildfeeds_ms", "ms", "lower", 0},
		{"sources.collect_ms_per_scan", "ms", "lower", 0},
		{"sources.candidates_per_scan", "count", "lower", 0},
		{"yarrp.collect_ms_per_scan", "ms", "lower", 0},
		{"core.runscan_self_ms_per_scan", "ms", "lower", 0},
		{"core.new_input_per_scan", "count", "lower", 0},
		{"core.scanned_targets_per_scan", "count", "lower", 0},
		{"core.alloc_mb_per_scan", "MB", "lower", 0},
		{"core.gc_pause_ms_total", "ms", "lower", 0},
		{"core.checkpoint_alloc_mb_per_ckpt", "MB", "lower", 0},
		{"core.resume_alloc_mb", "MB", "lower", 0},
		{"scan.main_busy_ms_per_scan", "ms", "lower", 0},
		{"scan.main_probes_per_scan", "count", "lower", 0},
		{"scan.shard_skew", "ratio", "lower", 0},
		{"scan.stream_ns_per_probe", "ns", "lower", 0},
		{"scan.probeone_ns.icmp", "ns", "lower", 0},
		{"scan.probeone_ns.tcp443", "ns", "lower", 0},
		{"scan.probeone_ns.tcp80", "ns", "lower", 0},
		{"scan.probeone_ns.udp443", "ns", "lower", 0},
		{"scan.probeone_ns.udp53", "ns", "lower", 0},
		{"scan.probeone_allocs", "count", "lower", 0},
		{"netmodel.probe_echo_ns", "ns", "lower", 0},
		{"netmodel.probe_syn_ns", "ns", "lower", 0},
		{"apd.run_ms", "ms", "lower", 0},
		{"apd.probes_per_run", "count", "lower", 0},
		{"apd.ns_per_probe", "ns", "lower", 0},
		{"gfw.classify_ns", "ns", "lower", 0},
		{"fleet.steals_per_scan", "count", "lower", 0},
		{"fleet.reissued_per_scan", "count", "lower", 0},
		{"fleet.worker_busy_ms_per_scan", "ms", "lower", 0},
		{"fleet.worker_skew", "ratio", "lower", 0},
		{"ip6.spill_runs_total", "count", "lower", 0},
		{"ip6.spill_add_ns", "ns", "lower", 0},
		{"ip6.spill_compact_ms", "ms", "lower", 0},
		{"ip6.spill_has_ns", "ns", "lower", 0},
		{"hlfile.write_mb_s", "MB/s", "higher", 0},
		{"hlfile.open_ms", "ms", "lower", 0},
		{"hlfile.sortedset_ms", "ms", "lower", 0},
		{"ckpt.files_per_ckpt", "count", "lower", 0},
		{"ckpt.chain_depth_max", "count", "lower", 0},
		{"ckpt.full_ms_p50", "ms", "lower", 0},
		{"ckpt.delta_ms_p50", "ms", "lower", 0},
		{"ckpt.open_chain_ms", "ms", "lower", 0},
	}
	for _, g := range tgaGens {
		defs = append(defs,
			metricDef{"tga." + g + ".pull_ms_per_round", "ms", "lower", 0},
			metricDef{"tga." + g + ".emitted_per_round", "count", "higher", 0},
			metricDef{"tga." + g + ".scratch_ms", "ms", "lower", 0})
	}
	return append(defs,
		metricDef{"tga.candidates_per_round", "count", "higher", 0},
		metricDef{"tga.responsive_per_round", "count", "higher", 0},
		metricDef{"tga.refrozen_shards_per_round", "count", "lower", 0},
		metricDef{"tga.hits_per_kcand", "count", "higher", 0},
		metricDef{"serve.publish_ms_per_scan", "ms", "lower", 0},
		metricDef{"serve.refrozen_shards_per_scan", "count", "lower", 0},
		metricDef{"serve.lookup_ns", "ns", "lower", 0},
		metricDef{"serve.respond_ns", "ns", "lower", 0},
		metricDef{"serve.respond_allocs", "count", "lower", 0},
		metricDef{"serve.dns_p99_ns", "ns", "lower", 0},
		metricDef{"serve.http_ns", "ns", "lower", 0},
		metricDef{"serve.http_allocs", "count", "lower", 0},
		metricDef{"dnswire.decode_query_ns", "ns", "lower", 0})
}()

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the central tenth of xs (the 45th to the 55th
// percentile): the median of a sample whose values are whole clock ticks,
// read with the digits the ties would hide.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := len(s) * 45 / 100
	hi := max(len(s)*55/100, lo+1)
	return mean(s[lo:hi])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
