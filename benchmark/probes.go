package main

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/journal"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/randx"
	"chiaroscuro/internal/sim"
	"chiaroscuro/internal/wireproto"
)

// Layer probes: micro-timings of single exported functions, each built
// from the workload's own scheme, dimensions and packing so the shapes
// match what the jobs push through that layer. Counts (ciphertexts per
// vector, frame bytes, allocations) are taken twice and must repeat.

// probeReps is how often a timed probe repeats; the median is reported.
const probeReps = 9

// timeMedian runs f probeReps times and returns the median duration.
func timeMedian(f func()) time.Duration {
	d := make([]float64, probeReps)
	for i := range d {
		t := time.Now()
		f()
		d[i] = float64(time.Since(t))
	}
	return time.Duration(median(d))
}

// mallocs counts the heap objects one call of f allocates, the way
// testing.AllocsPerRun does: one processor, a warm-up call, then the
// integer average over several calls, so a stray runtime allocation
// does not show.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	const runs = 10
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.Mallocs - a.Mallocs) / runs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probes fills the probe-sourced per-layer metrics for e's workload and
// returns the names of counts that did not repeat.
func probes(e *env, tmpDir string, layers map[string]float64) (unstable []string, err error) {
	w := e.w
	if !w.distributed() {
		centroids := kmeans.Compact(e.init)
		d := timeMedian(func() { _, err = kmeans.Assign(e.data, centroids) })
		if err != nil {
			return nil, fmt.Errorf("kmeans probe: %w", err)
		}
		layers["kmeans.assign_series_per_s"] = float64(e.data.Len()) / d.Seconds()
		return nil, nil
	}

	// The protocol's vector shape, derived exactly as the runtimes do.
	diss, dec := w.phaseCycles()
	cfg := core.Config{
		K: w.k, InitCentroids: e.init, DMin: chiaroscuro.CERMin, DMax: chiaroscuro.CERMax, Epsilon: w.epsilon,
		MaxIterations: w.iterations, Exchanges: w.exchanges, DissCycles: diss, DecryptCycles: dec,
		FracBits: 24, PackSlots: w.packSlots, Seed: e.seed, Workers: w.workers,
	}.Normalize(w.n)
	dim := w.k * (e.data.Dim() + 1)
	pack, err := core.PackingFor(cfg, w.n, e.data.Dim(), e.scheme)
	if err != nil {
		return nil, fmt.Errorf("packing probe: %w", err)
	}
	codec := homenc.NewCodec(cfg.FracBits)
	centroids := kmeans.Compact(e.init)
	contribution := func(i int) []*big.Int { return core.BuildContribution(e.data.Row(i), centroids, codec) }

	// homenc: packing and vector marshalling at the workload's layout.
	twice := func(name string, f func() float64) {
		a, b := f(), f()
		layers[name] = a
		if a != b {
			unstable = append(unstable, name)
		}
	}
	twice("homenc.cts_per_vector", func() float64 { return float64(pack.PackedLen(dim)) })
	vec := contribution(0)
	var packed []*big.Int
	layers["homenc.pack_us"] = us(timeMedian(func() { packed = pack.Pack(vec) }))
	layers["homenc.unpack_us"] = us(timeMedian(func() { _, err = pack.Unpack(packed, dim) }))
	if err != nil {
		return nil, fmt.Errorf("unpack probe: %w", err)
	}
	state := func(i, epoch int) eesum.SumState {
		ps := pack.Pack(contribution(i))
		cts := make([]homenc.Ciphertext, len(ps))
		for j, p := range ps {
			cts[j] = e.scheme.Encrypt(p)
		}
		return eesum.SumState{CTs: cts, Omega: big.NewInt(int64(1 + i)), Epoch: epoch}
	}
	// One epoch apart, as exchanging peers usually are: the merge pays
	// the staler side's rescaling as well as the additions.
	a, b := state(0, 0), state(1, 1)
	layers["homenc.marshal_vec_us"] = us(timeMedian(func() { _, err = homenc.MarshalVector(a.CTs) }))
	if err != nil {
		return nil, fmt.Errorf("marshal probe: %w", err)
	}

	// eesum: the three transitions the phases are made of.
	workers := eesum.DimWorkers(len(a.CTs), cfg.Workers)
	var merged eesum.SumState
	layers["eesum.merge_us"] = us(timeMedian(func() { merged = eesum.MergeSum(e.scheme, a, b, workers) }))
	parts := map[int][]homenc.PartialDecryption{}
	var perr error
	layers["eesum.dec_partials_ms"] = ms(timeMedian(func() {
		for idx := 1; idx <= w.tau && perr == nil; idx++ {
			parts[idx], perr = eesum.DecPartials(e.scheme, idx, merged.CTs, workers)
		}
	})) / float64(w.tau)
	if perr != nil {
		return nil, fmt.Errorf("partial-decryption probe: %w", perr)
	}
	layers["eesum.combine_ms"] = ms(timeMedian(func() { _, err = eesum.CombineParts(e.scheme, merged.CTs, parts, w.tau, workers) }))
	if err != nil {
		return nil, fmt.Errorf("combine probe: %w", err)
	}

	// wireproto: one sum-phase message through marshal, frame, read and
	// bounded unmarshal.
	lim := wireproto.NewLimits(e.scheme.CiphertextBytes(), dim, w.tau, w.n)
	msg := wireproto.SumMsg{
		Hdr:   wireproto.ExchangeHdr{Iter: 1, Cycle: 3, Seq: 2, From: 0, To: 1},
		Means: a, Noise: b, CtrSigma: 1, CtrOmega: 0.5,
	}
	var frameBytes int
	roundTrip := func() {
		var buf bytes.Buffer
		if err = wireproto.WriteFrameTarget(&buf, wireproto.KindSumReq, 7, 1, wireproto.MarshalSum(msg)); err != nil {
			return
		}
		frameBytes = buf.Len()
		var f wireproto.Frame
		if f, err = wireproto.ReadFrame(&buf, lim.MaxFrameLen); err != nil {
			return
		}
		_, err = wireproto.UnmarshalSum(f.Payload, lim)
	}
	layers["wireproto.sum_frame_us"] = us(timeMedian(roundTrip))
	if err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	twice("wireproto.sum_frame_bytes", func() float64 { roundTrip(); return float64(frameBytes) })
	twice("wireproto.sum_frame_allocs", func() float64 { return float64(mallocs(roundTrip)) })

	// sim: the cycle engine's per-exchange cost at paper scale.
	const simN = 100_000
	rng := randx.New(e.seed, 0x51B)
	values := make([]float64, simN)
	for i := range values {
		values[i] = rng.Float64()
	}
	engine, err := sim.New(sim.Config{N: simN, Seed: e.seed}, &sim.UniformSampler{})
	if err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	gs := gossip.NewSum(values, 0)
	exchanges := 0
	d := timeMedian(func() { exchanges = engine.RunCycleOn(gs) })
	layers["sim.exchange_ns"] = float64(d) / float64(max(1, exchanges))

	// journal: one checkpoint-sized commit (append + fsync).
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jr, _, err := journal.Open(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	checkpoint := wireproto.MarshalSum(msg)
	layers["journal.commit_us"] = us(timeMedian(func() {
		if err = jr.Append(1, checkpoint); err == nil {
			err = jr.Sync()
		}
	}))
	if cerr := jr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	return unstable, nil
}
