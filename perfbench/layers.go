package main

// layerMetrics is the per-layer metric set a traced run reports, in the
// order BENCHMARK.json lists it. Every workload reports every name; a
// layer a workload does not exercise (or cannot be timed from outside on
// it) reads 0, which is itself the prediction for that pairing.
var layerMetrics = []struct{ name, unit string }{
	{"testbed.new_s", "s"},
	{"devs.drain_s", "s"},
	{"devs.events", "count"},
	{"devs.ns_per_event", "ns"},
	{"devs.max_same_time", "count"},
	{"appsim.completed", "count"},
	{"appsim.completions_per_event", "ratio"},
	{"core.control_s", "s"},
	{"mpc.solves", "count"},
	{"mpc.warm_hit_frac", "frac"},
	{"mpc.relaxations", "count"},
	{"mpc.fallbacks", "count"},
	{"core.arbitrate_s", "s"},
	{"core.arbitrate_calls", "count"},
	{"workload.generate_s", "s"},
	{"optimizer.ipac_s", "s"},
	{"optimizer.pmapper_s", "s"},
	{"optimizer.passes", "count"},
	{"optimizer.migrations", "count"},
	{"optimizer.vetoed", "count"},
	{"packing.bnb_nodes", "count"},
	{"packing.widenings", "count"},
	{"packing.ns_per_node", "ns"},
	{"dcsim.step_self_s", "s"},
	{"serve.step_s", "s"},
	{"serve.route_status_s", "s"},
	{"serve.route_metrics_s", "s"},
	{"serve.route_scorecard_s", "s"},
	{"serve.route_timings_s", "s"},
	{"serve.route_history_s", "s"},
	{"serve.route_setpoint_s", "s"},
	{"telemetry.metrics_bytes", "B"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.http_p50_ms", "ms"},
	{"loadgen.http_p99_ms", "ms"},
	{"loadgen.slo_miss_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.mallocs", "count"},
	{"trace.coverage_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// reportLayers publishes every per-layer metric, taking measured values
// from got and 0 for the rest. A measured name missing from the table is
// a bug in this package and panics.
func reportLayers(res *result, got map[string]float64) {
	known := make(map[string]bool, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = true
		res.set(m.name, got[m.name], m.unit)
	}
	for k := range got {
		if !known[k] {
			panic("perfbench: unlisted layer metric " + k)
		}
	}
}
