package main

// perLayerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a metric whose layer the workload does not run
// reads 0 (for example sim.* on the real-runtime workloads).
var perLayerMetrics = []struct{ name, unit string }{
	{"core.master.refill_us_p50", "us"},
	{"core.master.refill_us_p99", "us"},
	{"core.ctrl_msgs_per_task", "count"},
	{"core.stream.data_msgs_per_file", "count"},
	{"core.worker.input_wait_ms_p50", "ms"},
	{"core.worker.input_wait_ms_p99", "ms"},
	{"core.worker.exec_ms_p50", "ms"},
	{"core.worker.exec_ms_p99", "ms"},
	{"core.worker.slot_busy_share", "share"},
	{"core.worker.output_mb", "MB"},
	{"core.worker.output_send_ms", "ms"},
	{"core.store.append_mb_per_s", "MB/s"},
	{"core.latency_samples", "count"},
	{"transport.send_us_p50", "us"},
	{"transport.send_us_p99", "us"},
	{"transport.bytes_per_task", "B"},
	{"protocol.encode_ns_per_msg", "ns"},
	{"protocol.decode_ns_per_msg", "ns"},
	{"protocol.wire_bytes_per_msg", "B"},
	{"catalog.read_mb_per_s", "MB/s"},
	{"catalog.opens", "count"},
	{"partition.plan_ms", "ms"},
	{"runtime.alloc_mb_per_task", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"cloud.provision_s", "s"},
	{"simrun.build_s", "s"},
	{"sim.events", "count"},
	{"sim.us_per_event", "us"},
	{"sim.allocs_per_event", "count"},
	{"netsim.flows", "count"},
	{"netsim.us_per_flow", "us"},
	{"failed_share", "share"},
	{"trace.run_s_ratio", "x"},
}

// newLayerResult returns a traced-run result with every per-layer metric
// present and zero.
func newLayerResult() *result {
	r := &result{Correct: true}
	for _, m := range perLayerMetrics {
		r.set(m.name, 0, m.unit)
	}
	for _, c := range failureCauses {
		r.set("fail."+c, 0, "count")
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", 0, "share")
	}
	return r
}
