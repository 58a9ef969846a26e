package scenario

import (
	"fmt"
	"sort"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// Assertion is one metric predicate: "metric op value", evaluated
// against a run's Result. The vocabulary (see metricFns) names every
// rollup the experiment tables report, in stable human units, so
// scenario files read like the claims they check:
//
//	{"Metric": "goodput_fraction", "Op": ">=", "Value": 0.99}
//	{"Metric": "failed_ops", "Op": "==", "Value": 0}
//
// Policy, when set, scopes the assertion to the runs of that one policy
// (by registered name) — the form a differential claim takes:
// "reordered_frames > 0 under flowdirector, == 0 under sais".
type Assertion struct {
	Metric string
	Op     string
	Value  float64
	Policy string `json:",omitempty"`
}

// metricFns maps assertion metric names onto Result fields. Times are
// reported in ms (strip latencies in µs, matching the tables), rates
// in MB/s, fractions in [0, 1].
var metricFns = map[string]func(*cluster.Result) float64{
	"bandwidth_mbps":  func(r *cluster.Result) float64 { return float64(r.Bandwidth) / float64(units.MBps) },
	"duration_ms":     func(r *cluster.Result) float64 { return float64(r.Duration) / float64(units.Millisecond) },
	"total_bytes":     func(r *cluster.Result) float64 { return float64(r.TotalBytes) },
	"cpu_utilization": func(r *cluster.Result) float64 { return r.CPUUtilization },
	"cache_miss_rate": func(r *cluster.Result) float64 { return r.CacheMissRate },
	"interrupts":      func(r *cluster.Result) float64 { return float64(r.Interrupts) },
	"unhalted_cycles": func(r *cluster.Result) float64 { return float64(r.UnhaltedCycles) },
	"remote_lines":    func(r *cluster.Result) float64 { return float64(r.RemoteLines) },
	"hinted_fraction": func(r *cluster.Result) float64 {
		if r.Interrupts == 0 {
			return 0
		}
		return float64(r.HintedIRQs) / float64(r.Interrupts)
	},
	"goodput_fraction": func(r *cluster.Result) float64 {
		if r.Faults.OfferedBytes == 0 {
			return 0
		}
		return float64(r.Faults.GoodputBytes) / float64(r.Faults.OfferedBytes)
	},
	"failed_ops":       func(r *cluster.Result) float64 { return float64(r.Faults.FailedOps) },
	"partial_ops":      func(r *cluster.Result) float64 { return float64(r.Faults.PartialOps) },
	"partial_bytes":    func(r *cluster.Result) float64 { return float64(r.Faults.PartialBytes) },
	"retries":          func(r *cluster.Result) float64 { return float64(r.Retries) },
	"strips_retried":   func(r *cluster.Result) float64 { return float64(r.Faults.StripsRetried) },
	"duplicate_strips": func(r *cluster.Result) float64 { return float64(r.Faults.DuplicateStrips) },
	"frames_dropped":   func(r *cluster.Result) float64 { return float64(r.Faults.FramesDropped) },
	"frames_corrupted": func(r *cluster.Result) float64 { return float64(r.Faults.FramesCorrupted) },
	"header_drops":     func(r *cluster.Result) float64 { return float64(r.Faults.HeaderDrops) },
	"ring_drops":       func(r *cluster.Result) float64 { return float64(r.Faults.RingDrops) },
	"storm_frames":     func(r *cluster.Result) float64 { return float64(r.Faults.StormFrames) },
	"stalls_injected":  func(r *cluster.Result) float64 { return float64(r.Faults.StallsInjected) },
	"crashes":          func(r *cluster.Result) float64 { return float64(r.Faults.Crashes) },
	"downtime_ms": func(r *cluster.Result) float64 {
		var d units.Time
		for _, t := range r.Faults.ServerDowntime {
			d += t
		}
		return float64(d) / float64(units.Millisecond)
	},
	"recovery_ms":     func(r *cluster.Result) float64 { return float64(r.Faults.RecoveryTime) / float64(units.Millisecond) },
	"latency_mean_ms": func(r *cluster.Result) float64 { return float64(r.LatencyMean) / float64(units.Millisecond) },
	"latency_p50_ms":  func(r *cluster.Result) float64 { return float64(r.LatencyP50) / float64(units.Millisecond) },
	"latency_p99_ms":  func(r *cluster.Result) float64 { return float64(r.LatencyP99) / float64(units.Millisecond) },
	"write_latency_p99_ms": func(r *cluster.Result) float64 {
		return float64(r.WriteLatencyP99) / float64(units.Millisecond)
	},
	"reordered_frames":  func(r *cluster.Result) float64 { return float64(r.ReorderedFrames) },
	"reorder_depth_max": func(r *cluster.Result) float64 { return float64(r.ReorderDepthMax) },
	"strip_count":       func(r *cluster.Result) float64 { return float64(r.StripCount) },
	"strip_p50_us":      func(r *cluster.Result) float64 { return float64(r.StripLatencyP50) / float64(units.Microsecond) },
	"strip_p95_us":      func(r *cluster.Result) float64 { return float64(r.StripLatencyP95) / float64(units.Microsecond) },
	"strip_p99_us":      func(r *cluster.Result) float64 { return float64(r.StripLatencyP99) / float64(units.Microsecond) },
	"client_nic_busy":   func(r *cluster.Result) float64 { return r.ClientNICBusy },
	"disk_busy":         func(r *cluster.Result) float64 { return r.DiskBusy },
	"server_cpu_busy":   func(r *cluster.Result) float64 { return r.ServerCPUBusy },
	"background_offered_bytes": func(r *cluster.Result) float64 {
		return float64(r.BackgroundOfferedBytes)
	},
	"background_served_bytes": func(r *cluster.Result) float64 {
		return float64(r.BackgroundServedBytes)
	},
	"background_served_fraction": func(r *cluster.Result) float64 {
		if r.BackgroundOfferedBytes == 0 {
			return 0
		}
		return float64(r.BackgroundServedBytes) / float64(r.BackgroundOfferedBytes)
	},
}

// MetricNames returns the assertion vocabulary, sorted — for error
// messages and documentation.
func MetricNames() []string {
	names := make([]string, 0, len(metricFns))
	//lint:maporder sorted immediately below
	for name := range metricFns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Validate checks the assertion names a known metric, operator, and
// (when scoped) a registered policy.
func (a Assertion) Validate() error {
	if _, ok := metricFns[a.Metric]; !ok {
		return fmt.Errorf("assertion: unknown metric %q (want one of %v)", a.Metric, MetricNames())
	}
	if a.Policy != "" {
		if _, err := irqsched.ParsePolicy(a.Policy); err != nil {
			return fmt.Errorf("assertion: %w", err)
		}
	}
	switch a.Op {
	case "<=", ">=", "<", ">", "==", "!=":
		return nil
	default:
		return fmt.Errorf("assertion: unknown op %q (want <=, >=, <, >, ==, !=)", a.Op)
	}
}

// Applies reports whether the assertion covers a run of the given
// policy (unscoped assertions cover every run).
func (a Assertion) Applies(policy string) bool {
	return a.Policy == "" || a.Policy == policy
}

// Eval evaluates the assertion against res, returning the observed
// value and whether the predicate held.
func (a Assertion) Eval(res *cluster.Result) (got float64, ok bool, err error) {
	fn, found := metricFns[a.Metric]
	if !found {
		return 0, false, fmt.Errorf("assertion: unknown metric %q", a.Metric)
	}
	got = fn(res)
	switch a.Op {
	case "<=":
		ok = got <= a.Value
	case ">=":
		ok = got >= a.Value
	case "<":
		ok = got < a.Value
	case ">":
		ok = got > a.Value
	case "==":
		ok = got == a.Value
	case "!=":
		ok = got != a.Value
	default:
		return got, false, fmt.Errorf("assertion: unknown op %q", a.Op)
	}
	return got, ok, nil
}

// String renders the assertion as it appears in failure messages.
func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %g", a.Metric, a.Op, a.Value)
}
