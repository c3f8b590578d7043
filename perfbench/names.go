package main

import "fmt"

// validName reports whether s is a valid metric or workload name: 1–64
// characters from [A-Za-z0-9_.-], starting with a letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a valid unit: 1–16 characters from
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '/' || c == '%' || c == '.' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload. Their meaning per workload is documented in WORKLOADS.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"total_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload does not exercise reads 0: it did no work.
var perLayer = []metricDef{
	{"sched.fcfs_s", "s"},
	{"sched.easy_s", "s"},
	{"sched.conservative_s", "s"},
	{"sched.allocs.fcfs", "count"},
	{"sched.allocs.easy", "count"},
	{"sched.allocs.conservative", "count"},
	{"sched.jobs", "count"},
	{"core.stage.panel_s", "s"},
	{"core.stage.cohort-table_s", "s"},
	{"core.stage.trace_s", "s"},
	{"core.stage.jobs-merge_s", "s"},
	{"core.stage.modlog-merge_s", "s"},
	{"core.stage.sim-policy_s", "s"},
	{"core.stage.sim-fcfs_s", "s"},
	{"core.stage.sim-conservative_s", "s"},
	{"parallel.stage_sum_s", "s"},
	{"parallel.wall_s", "s"},
	{"parallel.overlap", "ratio"},
	{"parallel.sequential_s", "s"},
	{"parallel.speedup", "ratio"},
	{"trace.gen_s", "s"},
	{"trace.jobs", "count"},
	{"modlog.gen_s", "s"},
	{"population.cohort_s", "s"},
	{"weighting.rake_s", "s"},
	{"weighting.rake_iterations", "count"},
	{"stagecache.hits", "count"},
	{"stagecache.misses", "count"},
	{"stagecache.hit_ratio", "ratio"},
	{"stagecache.stores", "count"},
	{"stagecache.bytes", "B"},
	{"stagecache.trace_encode_s", "s"},
	{"stagecache.trace_decode_s", "s"},
	{"stagecache.payload_mb", "MB"},
	{"report.render_s.json", "s"},
	{"report.render_s.txt", "s"},
	{"report.render_s.csv", "s"},
	{"report.render_s.md", "s"},
	{"report.render_s.svg", "s"},
	{"report.bytes", "B"},
	{"serve.handler_s.tables", "s"},
	{"serve.handler_s.figures", "s"},
	{"serve.handler_s.run", "s"},
	{"serve.client_gap_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.not_modified", "count"},
	{"serve.rejected", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.runs", "count"},
	{"serve.collapsed", "count"},
	{"serve.run_cache_hits", "count"},
	{"serve.run_s", "s"},
	{"read.tail_ms", "ms"},
	{"read.tail_pct", "%"},
	{"read.samples", "count"},
	{"read.max_rps", "1/s"},
	{"cluster.computes", "count"},
	{"cluster.fingerprints", "count"},
	{"cluster.peer_fills", "count"},
	{"cluster.stage_steals", "count"},
	{"cluster.stage_steal_s", "s"},
	{"cluster.lease_requests", "count"},
	{"cluster.gossip_sent", "count"},
	{"cluster.converge_s", "s"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"go.gc_cycles", "count"},
	{"bench.fail_ratio", "ratio"},
	{"bench.untraced_p50_ms", "ms"},
	{"bench.traced_p50_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.spans", "count"},
}

// checkDefs validates a metric list: valid, unique names and units.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !validName(d.name) {
			return fmt.Errorf("invalid metric name %q", d.name)
		}
		if !validUnit(d.unit) {
			return fmt.Errorf("metric %s: invalid unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("duplicate metric name %q", d.name)
		}
		seen[d.name] = true
	}
	return nil
}
