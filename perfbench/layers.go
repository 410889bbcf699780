package main

import "time"

// metric is one reported metric as BENCHMARK.json declares it.
type metric struct {
	name, unit, better string
	// moves names the end-to-end metrics, on which workloads, that a
	// per-layer metric should move. A layer a workload never reaches
	// reports 0 there.
	moves string
}

// endToEnd metrics are printed by untraced runs. Every workload reports
// all of them for its own user-visible operation: a whole sweep, one
// analysis job, one read request.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "peak_heap_mb", unit: "MiB", better: "lower"},
}

const (
	serve  = "serve-read, serve-mixed"
	jobs   = "op_p50_ms, ops_per_s on analyze"
	sweeps = "op_p50_ms on sweep"
)

// perLayer metrics are printed by traced runs.
var perLayer = []metric{
	{"gen.movies_s", "s", "lower", "setup_s on every workload; " + sweeps + " (each placement arm regenerates the log)"},
	{"hdfs.write_s", "s", "lower", "setup_s on every workload"},
	{"elasticmap.build_mb_s", "MiB/s", "higher", "setup_s on every workload"},
	{"elasticmap.decode_mb_s", "MiB/s", "higher", "setup_s on " + serve + "; client.write_tail_ms on serve-mixed (PUT)"},
	{"elasticmap.estimate_us", "us", "lower", "op_p50_ms, ops_per_s on serve-mixed, then serve-read; slightly op_p50_ms on analyze"},
	{"elasticmap.distribution_us", "us", "lower", "op_p50_ms, ops_per_s on serve-mixed, then serve-read; slightly op_p50_ms on analyze"},
	{"elasticmap.append_ms", "ms", "lower", "client.write_tail_ms on serve-mixed"},
	{"sched.pick_ns", "ns", "lower", "op_p50_ms on analyze"},
	{"mapreduce.run_ms", "ms", "lower", jobs + "; " + sweeps},
	{"mapreduce.sim_ms", "ms", "lower", jobs + "; " + sweeps},
	{"mapreduce.tasks_per_job", "count", "lower", jobs},
	{"apps.map_mb_s", "MiB/s", "higher", jobs + "; " + sweeps + " (straggler half)"},
	{"apps.reduce_ms", "ms", "lower", jobs + "; " + sweeps + " (straggler half)"},
	{"experiments.placement_sweep_s", "s", "lower", sweeps},
	{"experiments.straggler_sweep_s", "s", "lower", sweeps},
	{"server.cache_hit_ratio", "ratio", "higher", "op_p50_ms, op_tail_ms on " + serve},
	{"server.cache_lookups", "count", "higher", "base of server.cache_hit_ratio"},
	{"server.read_p50_ms", "ms", "lower", "op_p50_ms on " + serve + "; client minus server is transport"},
	{"server.read_p99_ms", "ms", "lower", "op_tail_ms on " + serve},
	{"server.write_p50_ms", "ms", "lower", "client.write_p50_ms on serve-mixed"},
	{"server.scrape_ms", "ms", "lower", "op_tail_ms, ops_per_s on " + serve},
	{"server.heap_bytes_per_req", "bytes", "lower", "peak_heap_mb, ops_per_s on " + serve},
	{"client.write_p50_ms", "ms", "lower", "the write latency serve-mixed users see"},
	{"client.write_tail_ms", "ms", "lower", "the write latency serve-mixed users see, at p99 or the highest percentile with ten writes beyond it"},
	{"runtime.alloc_mb", "MiB", "lower", "op_tail_ms, ops_per_s on every workload"},
	{"runtime.gc_cycles", "count", "lower", "op_tail_ms, ops_per_s on every workload"},
	{"trace.overhead_pct", "%", "lower", "none: how far tracing slows the traced operation's median"},
}

// layerValues derives the per-layer metrics from the traced run's spans,
// the workload's own server-side readings, and the untraced loop's
// runtime counters.
func layerValues(aggs map[string]*layerAgg, base, traced *loop) map[string]float64 {
	a := func(name string) *layerAgg { return aggs[name] }
	v := map[string]float64{
		"gen.movies_s":                  a("gen.Movies").medianMs() / 1e3,
		"hdfs.write_s":                  a("hdfs.Write").medianMs() / 1e3,
		"elasticmap.build_mb_s":         a("elasticmap.Build").mbPerS(),
		"elasticmap.decode_mb_s":        a("elasticmap.Decode").mbPerS(),
		"elasticmap.estimate_us":        a("elasticmap.Estimate").perN(time.Microsecond),
		"elasticmap.distribution_us":    a("elasticmap.Distribution").perN(time.Microsecond),
		"elasticmap.append_ms":          a("elasticmap.Append").perN(time.Millisecond),
		"sched.pick_ns":                 a("sched.Drain").perN(time.Nanosecond),
		"mapreduce.run_ms":              a("mapreduce.Run").medianMs(),
		"mapreduce.sim_ms":              a("mapreduce.Sim").medianMs(),
		"apps.map_mb_s":                 a("apps.Map").mbPerS(),
		"apps.reduce_ms":                a("apps.Reduce").meanMs(),
		"experiments.placement_sweep_s": a("experiments.PlacementSweep").medianMs() / 1e3,
		"experiments.straggler_sweep_s": a("experiments.StragglerSweep").medianMs() / 1e3,
		"runtime.alloc_mb":              base.allocMB,
		"runtime.gc_cycles":             float64(base.gcs),
	}
	if run := a("mapreduce.Run"); run != nil {
		v["mapreduce.tasks_per_job"] = float64(run.n) / float64(run.count)
	}
	if p50 := median(base.ops); p50 > 0 {
		v["trace.overhead_pct"] = 100 * (median(traced.ops) - p50) / p50
	}
	for k, x := range traced.layer {
		v[k] = x
	}
	return v
}
