package main

// The benchmark's contract: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root states the same thing for the driver; smoke_test.go fails when
// the two disagree.

// metricSpec names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wSimDJ     = "sim-dj"
	wNetDJWAN  = "net-dj-wan"
	wNetVnodes = "net-plain-vnodes"
	wCentralDP = "central-dp"
)

var workloadSpecs = []workloadSpec{
	{wSimDJ, "crypto-bound: simulated protocol, 12 peers on real 1024-bit Damgard-Jurik, no wire, no packing; over 80% of CPU is modular exponentiation"},
	{wNetDJWAN, "wait-bound: 16 TCP peers, packed s=2 keys, seeded 0-10 ms write delay; cores idle over half the time, so overlap and retry work shows here only"},
	{wNetVnodes, "runtime-bound: 400 virtual peers on one mux host over pipes, plain scheme; framing, scheduling and big.Int churn with no exponentiation"},
	{wCentralDP, "control and quality: centralized DP k-means at the paper's eps=ln2 on 500k series; no crypto, gossip or socket, so distributed-layer work must not move it"},
}

// End-to-end metric names.
const (
	mJobS      = "job_s"
	mCPU       = "cpu_s_per_job"
	mWireBytes = "wire_bytes_per_peer"
	mAllocMB   = "alloc_mb_per_job"
	mPeakHeap  = "peak_heap_mb"
	mInertia   = "inertia_ratio"
	mSetupS    = "setup_s"
)

var endToEndSpecs = []metricSpec{
	{mJobS, "s", "lower", 0.25},
	{mCPU, "core.s", "lower", 0.25},
	{mWireBytes, "B", "lower", 0.01},
	{mAllocMB, "MB", "lower", 0.05},
	{mPeakHeap, "MB", "lower", 0.10},
	{mInertia, "ratio", "lower", 0.08},
	{mSetupS, "s", "lower", 0.25},
}

// cryptoOps are the homenc.Scheme operations the decorator times, in
// the order of the per-layer table.
var cryptoOps = []string{"encrypt", "add", "scalarmul", "partial_decrypt", "combine"}

const (
	opEncrypt = iota
	opAdd
	opScalarMul
	opPartialDecrypt
	opCombine
	nOps
)

// schemeModules maps a homenc.Scheme name to its per-layer prefix.
var schemeModules = map[string]string{"damgard-jurik": "damgardjurik", "plain": "plain"}

var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	var out []metricSpec
	for _, mod := range []string{"damgardjurik", "plain"} {
		for _, op := range cryptoOps {
			out = append(out,
				metricSpec{Name: mod + "." + op + "_n", Unit: "count", Better: "lower"},
				metricSpec{Name: mod + "." + op + "_busy_s", Unit: "core.s", Better: "lower"})
		}
	}
	for _, m := range []metricSpec{
		{Name: "core.sum_s", Unit: "s"},
		{Name: "core.diss_s", Unit: "s"},
		{Name: "core.dec_s", Unit: "s"},
		{Name: "core.release_s", Unit: "s"},
		{Name: "core.sum_self_s", Unit: "s"},
		{Name: "core.diss_self_s", Unit: "s"},
		{Name: "core.dec_self_s", Unit: "s"},
		{Name: "core.cycles", Unit: "count"},
		{Name: "core.cycle_ms_p50", Unit: "ms"},
		{Name: "core.cycle_ms_p90", Unit: "ms"},
		{Name: "homenc.cts_per_vector", Unit: "count"},
		{Name: "homenc.pack_us", Unit: "us"},
		{Name: "homenc.unpack_us", Unit: "us"},
		{Name: "homenc.marshal_vec_us", Unit: "us"},
		{Name: "eesum.merge_us", Unit: "us"},
		{Name: "eesum.dec_partials_ms", Unit: "ms"},
		{Name: "eesum.combine_ms", Unit: "ms"},
		{Name: "wireproto.sum_frame_us", Unit: "us"},
		{Name: "wireproto.sum_frame_bytes", Unit: "B"},
		{Name: "wireproto.sum_frame_allocs", Unit: "count"},
		{Name: "node.exchanges", Unit: "count", Better: "higher"},
		{Name: "node.timeouts", Unit: "count"},
		{Name: "node.retries", Unit: "count"},
		{Name: "node.commit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "node.wire_overhead", Unit: "ratio"},
		{Name: "node.idle_core_s", Unit: "core.s"},
		{Name: "mux.transport_s", Unit: "s"},
		{Name: "kmeans.assign_series_per_s", Unit: "1/s", Better: "higher"},
		{Name: "dpkmeans.iter_s", Unit: "s"},
		{Name: "sim.exchange_ns", Unit: "ns"},
		{Name: "journal.commit_us", Unit: "us"},
		{Name: "runtime.gc_cycles", Unit: "count"},
		{Name: "runtime.gc_pause_ms", Unit: "ms"},
		{Name: "runtime.mallocs_per_job", Unit: "count"},
		{Name: "runtime.peak_goroutines", Unit: "count"},
		{Name: "trace.job_s", Unit: "s"},
		{Name: "trace.overhead_job_s", Unit: "s"},
		{Name: "trace.crypto_cpu_share", Unit: "ratio"},
		{Name: "trace.idle_share", Unit: "ratio"},
		{Name: "trace.spans", Unit: "count"},
	} {
		if m.Better == "" {
			m.Better = "lower"
		}
		out = append(out, m)
	}
	return out
}

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is the timed window the driver asks for; the README's
// baseline and the -verify mode use the same length.
const runSeconds = 20

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
}
