package main

import (
	"encoding/json"
	"io"
)

// metricDef is one metric the benchmark reports. Bound is set only on
// end-to-end metrics: the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// hostLayers are the simulator's modules, in the order their host-time
// shares are reported. "gc" is the runtime's background collector and
// "other" holds samples with neither a module frame nor a GC frame (the
// Go scheduler between shard rounds, the profiler itself).
var hostLayers = []string{"sim", "shard", "netsim", "pfs", "disk", "cpu", "cache", "apic",
	"irqsched", "client", "workload", "flowsim", "faults", "cluster", "gc", "other"}

// allocLayers are the owners allocations are charged to. The collector
// allocates nothing of its own, so gc has no row; "tiny" holds the
// small pointer-free allocations the runtime packs into a shared block
// and counts without profiling, so no stack names their owner.
var allocLayers = []string{"sim", "shard", "netsim", "pfs", "disk", "cpu", "cache", "apic",
	"irqsched", "client", "workload", "flowsim", "faults", "cluster", "other", "tiny"}

// endToEnd are the metrics a user of the simulator sees, reported by
// untraced runs. Host-time metrics get the largest bound the benchmark
// contract allows: on a shared 2-vCPU guest raw wall time spreads by
// 13–33 % over six seeds, and by about 5 % once scaled by the
// calibration kernel (norm_wall_s). Allocation counts repeat to 0.3 %;
// the simulated bandwidth varies with the seed by up to 4 %. The raw
// wall_s and sim_MB_per_wall_s, a constant over wall_s, are printed but
// not gated.
var endToEnd = []metricDef{
	{"norm_wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_strip", "allocs/strip", "lower", 0.05},
	{"alloc_bytes_per_strip", "B/strip", "lower", 0.05},
	{"model_bandwidth_MBps", "MB/s", "higher", 0.15},
}

// perLayer are the metrics of single layers, reported by the traced
// invocation. Metrics that do not apply to a workload read 0 there.
func perLayer() []metricDef {
	var ms []metricDef
	for _, l := range hostLayers {
		ms = append(ms, metricDef{Name: l + ".host_frac", Unit: "frac", Better: "lower"})
	}
	for _, l := range allocLayers {
		ms = append(ms, metricDef{Name: l + ".allocs_per_strip", Unit: "allocs/strip", Better: "lower"})
	}
	return append(ms, []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_strip", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "shard.rounds", Unit: "count", Better: "lower"},
		{Name: "shard.events_per_round", Unit: "count", Better: "higher"},
		{Name: "shard.us_per_round", Unit: "us", Better: "lower"},
		{Name: "client.issue_p50_us", Unit: "us", Better: "lower"},
		{Name: "pfs.service_p50_us", Unit: "us", Better: "lower"},
		{Name: "pfs.service_p99_us", Unit: "us", Better: "lower"},
		{Name: "netsim.fabric_p50_us", Unit: "us", Better: "lower"},
		{Name: "netsim.ring_p99_us", Unit: "us", Better: "lower"},
		{Name: "apic.steer_p50_us", Unit: "us", Better: "lower"},
		{Name: "cpu.irq_p50_us", Unit: "us", Better: "lower"},
		{Name: "client.consume_p50_us", Unit: "us", Better: "lower"},
		{Name: "cache.remote_lines_per_strip", Unit: "lines/strip", Better: "lower"},
		{Name: "cache.miss_rate", Unit: "frac", Better: "lower"},
		{Name: "cpu.migration_share", Unit: "frac", Better: "lower"},
		{Name: "cpu.softirq_share", Unit: "frac", Better: "lower"},
		{Name: "cpu.utilization", Unit: "frac", Better: "lower"},
		{Name: "apic.hinted_frac", Unit: "frac", Better: "higher"},
		{Name: "netsim.client_nic_busy", Unit: "frac", Better: "higher"},
		{Name: "pfs.server_cpu_busy", Unit: "frac", Better: "lower"},
		{Name: "disk.busy", Unit: "frac", Better: "lower"},
		{Name: "faults.strips_retried", Unit: "count", Better: "lower"},
		{Name: "client.retries", Unit: "count", Better: "lower"},
		{Name: "flowsim.served_frac", Unit: "frac", Better: "higher"},
		{Name: "model_strip_p99_us", Unit: "us", Better: "lower"},
		{Name: "paper_gap_pp", Unit: "pp", Better: "lower"},
		{Name: "trace.spans", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	}...)
}

// runSeconds is how long one invocation measures.
const runSeconds = 20

// writeSpec writes the BENCHMARK.json document describing this
// benchmark: its command, workloads and metric catalogue.
func writeSpec(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1)
		if err != nil {
			return err
		}
		spec.Workloads = append(spec.Workloads, named{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer() {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
