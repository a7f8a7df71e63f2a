package main

import (
	"sort"
	"strings"
)

// endToEnd and perLayer are the metrics of BENCHMARK.json: an untraced run
// reports exactly endToEnd, a traced run exactly perLayer, on every
// workload. Each is defined on every workload (see README.md); anything
// else a run measures, such as the virtual latency quantiles that exist on
// the serving workloads only, is printed as an "also:" line and checked, but
// not put in the result.
var (
	endToEnd = []string{"setup_s", "host_ns_per_vreq", "run_s", "heap_peak_mib"}
	perLayer = []string{
		"core.boot_ms", "core.open_ms",
		"gc.allocs_per_vreq", "gc.bytes_per_vreq", "gc.cycles", "gc.cpu_pct",
		"host.sim_pct", "host.serve_pct", "host.srpc_pct", "host.spm_hw_pct", "host.device_pct",
		"host.crypto_pct", "host.gc_pct", "host.sched_pct", "host.other_pct",
		"sim.events_per_vreq", "sim.host_ns_per_event",
		"srpc.calls_per_vreq", "srpc.sync_waits_per_vreq",
		"spm.world_switches_per_vreq", "spm.tlb_misses_per_vreq", "spm.failovers",
		"gpu.launches_per_vreq",
		"attest.channel_opens", "attest.cold_admissions", "attest.resumed_admissions",
		"serve.batches_per_vreq", "serve.replayed", "serve.retries",
		"cluster.rehomed", "elastic.migrations",
		"trace_overhead_pct",
	}
)

// moves records, for each per-layer metric, the end-to-end metric it is
// expected to move and the workload where that shows most. A traced run
// prints the rows of the metrics it reports, so every per-layer number
// carries its prediction.
var moves = []struct{ prefix, e2e, where string }{
	{"core.boot_ms", "setup_s", "serve-fleet"},
	{"core.open_ms", "setup_s", "serve-fleet"},
	{"attest.channel_opens", "setup_s", "serve-fleet"},
	{"host.crypto_pct", "setup_s", "serve-fleet"},
	{"gc.", "host_ns_per_vreq, heap_peak_mib", "serve-fleet"},
	{"sim.", "host_ns_per_vreq", "serve-steady"},
	{"host.sim_pct", "host_ns_per_vreq", "serve-steady"},
	{"host.gc_pct", "host_ns_per_vreq", "serve-steady"},
	{"host.serve_pct", "host_ns_per_vreq", "serve-fleet"},
	{"host.sched_pct", "host_ns_per_vreq", "serve-classic"},
	{"host.srpc_pct", "host_ns_per_vreq", "serve-classic"},
	{"host.spm_hw_pct", "host_ns_per_vreq, run_s", "serve-classic, paper-eval"},
	{"host.device_pct", "run_s", "paper-eval"},
	{"host.other_pct", "none (library time outside any program frame)", "-"},
	{"srpc.", "host_ns_per_vreq, run_s", "serve-classic, paper-eval"},
	{"spm.world_switches_per_vreq", "host_ns_per_vreq, run_s", "serve-classic, paper-eval"},
	{"spm.tlb_misses_per_vreq", "host_ns_per_vreq, run_s", "serve-classic, paper-eval"},
	{"gpu.launches_per_vreq", "run_s", "paper-eval"},
	{"serve.batches_per_vreq", "host_ns_per_vreq (and virtual v_p50_us, v_capacity_rps)", "serve-steady"},
	{"attest.cold_admissions", "run_s (and virtual v_p999_us)", "serve-fleet"},
	{"attest.resumed_admissions", "run_s (and virtual v_p999_us)", "serve-fleet"},
	{"cluster.rehomed", "run_s (and virtual v_p999_us)", "serve-fleet"},
	{"elastic.migrations", "run_s (and virtual v_p999_us)", "serve-fleet"},
	{"spm.failovers", "run_s (and virtual v_p99_us)", "serve-classic, serve-fleet"},
	{"serve.replayed", "run_s (and virtual v_p99_us, v_p999_us)", "serve-fleet, serve-classic"},
	{"serve.retries", "run_s (and virtual v_p99_us, v_p999_us)", "serve-fleet, serve-classic"},
	{"trace_overhead_pct", "none (cost of the traced run)", "-"},
}

// movesNotes renders the prediction rows for the metrics a traced run
// reports.
func movesNotes(metrics map[string]metric) []string {
	var out []string
	for _, m := range moves {
		var names []string
		for name := range metrics {
			if strings.HasPrefix(name, m.prefix) {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		out = append(out, "moves: "+strings.Join(names, ", ")+" -> "+m.e2e+" on "+m.where)
	}
	return out
}
