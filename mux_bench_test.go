package chiaroscuro

import (
	"bytes"
	"context"
	"math/big"
	"strings"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/faultnet"
	"chiaroscuro/internal/homenc"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/wireproto"
)

// benchMuxCycle drives a full 12-participant Networked run on the
// simulation scheme — every frame real, no modular exponentiation — so
// the pair below isolates the transport: one TCP listener per
// participant versus all twelve as virtual nodes on one mux listener
// exchanging over its in-process connections. Reported per protocol run
// (one iteration: sum + dissemination + decryption cycles).
func benchMuxCycle(b *testing.B, vnodes int) {
	b.Helper()
	data, _ := GenerateCER(12, 7)
	seeds := SeedCentroids("cer", 2, 8)
	var cycles float64
	for i := 0; i < b.N; i++ {
		scheme, err := NewSimulationScheme(64, 12, 4)
		if err != nil {
			b.Fatal(err)
		}
		job, err := NewJob(data, Options{
			Mode: Networked, Scheme: scheme,
			K: 2, InitCentroids: seeds,
			DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
			FracBits: 24, Seed: uint64(i),
			VirtualNodes: vnodes,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Centroids) == 0 {
			b.Fatal("no centroids")
		}
		cycles = 0
		for _, tr := range res.Traces {
			cycles += float64(tr.SumCycles + tr.DissCycles + tr.DecryptCycles)
		}
	}
	b.ReportMetric(cycles, "cycles/run")
}

func BenchmarkMuxCycleTCP(b *testing.B)       { benchMuxCycle(b, 0) }
func BenchmarkMuxCycleInProcess(b *testing.B) { benchMuxCycle(b, 12) }

// BenchmarkNetworkedWAN16 is one protocol iteration of a wait-bound
// deployment: 16 TCP peers on 1024-bit degree-2 (packed) keys, τ = 5,
// the fixed phase budget of a 16-peer population, and a seeded [0, 10 ms)
// delay before every frame an initiator writes. Cores idle most of the
// time, so ns/op tracks how well the runtime overlaps its waits — the
// benchmark module's net-dj-wan workload, kept here as well so that
// BENCH_*.json records it next to EndToEndRealCrypto12.
func BenchmarkNetworkedWAN16(b *testing.B) {
	const n, tau = 16, 5
	data, _ := GenerateCER(n, 7)
	seeds := SeedCentroids("cer", 2, 8)
	scheme, err := NewTestScheme(1024, 2, n, tau)
	if err != nil {
		b.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(n)
	run := func(seed uint64) {
		proto := core.Config{
			K: 2, InitCentroids: seeds,
			DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 10,
			DissCycles: diss, DecryptCycles: dec,
			FracBits: 24, Seed: seed, Workers: 1,
		}
		inj := faultnet.New(faultnet.Plan{Seed: proto.Seed, LatencyMax: 10 * time.Millisecond})
		pop, err := mux.Launch(node.Config{N: n, Scheme: scheme, Proto: proto}, data, 0, n, 1, func(cfg *node.Config) error {
			cfg.Dialer = inj.Node(cfg.Index)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		defer pop.Close()
		results, err := pop.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var timeouts, retries int64
		for _, r := range results {
			timeouts += r.Counters.Timeouts
			retries += r.Counters.Retries
		}
		if len(results[0].Centroids) == 0 || timeouts != 0 || retries != 0 {
			b.Fatalf("released %d centroids with %d timeouts, %d retries", len(results[0].Centroids), timeouts, retries)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i + 1))
	}
}

// BenchmarkDecFrameRoundTrip is one decryption leg at the vnode
// benchmark's shape (τ = 5 key-shares, partial vectors of 50 elements)
// as a peer in steady state pays it: write from cached wire images, read
// into a pooled buffer, structural scan, release. The parts case carries
// all five partial vectors (a leg to a peer holding none of them); the
// settled case is a leg between two full sets, which names the five
// indices alone. Its allocs/op is the per-frame allocation count
// BENCH_*.json tracks.
func BenchmarkDecFrameRoundTrip(b *testing.B) {
	const dim, tau = 50, 5
	cts := make([]homenc.Ciphertext, dim)
	for j := range cts {
		cts[j] = homenc.Ciphertext{V: big.NewInt(int64(j+1) << 40)}
	}
	set := make([]eesum.Part, tau)
	for i := range set {
		set[i] = eesum.Part{Idx: i + 1, V: homenc.NewVector(cts)}
	}
	hdr := wireproto.ExchangeHdr{Iter: 1, Cycle: 3, Seq: 2, From: 0, To: 1}
	lim := wireproto.NewLimits(64, dim, tau, 400)
	for _, c := range []struct {
		name string
		msg  *wireproto.DecMsg
	}{
		{"parts", &wireproto.DecMsg{Hdr: hdr, ID: 0xC0FFEE, Shares: set, Parts: set}},
		{"settled", &wireproto.DecMsg{Hdr: hdr, ID: 0xC0FFEE, Shares: set}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			roundTrip := func() {
				buf.Reset()
				if _, err := wireproto.WriteMessage(&buf, wireproto.KindDecReq, 7, 1, c.msg); err != nil {
					b.Fatal(err)
				}
				f, err := wireproto.ReadFrame(&buf, lim.MaxFrameLen)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wireproto.ScanDec(f.Payload, lim); err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
			roundTrip() // build the images and warm the pool, as every frame after a peer's first is
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}

// BenchmarkInProcExchange is what one exchange between co-located
// participants costs in the transport: dial through the host's
// Transport, a request and a response of sum-frame size (≈ 6 KB at the
// vnode benchmark's shape: two 50-ciphertext states of 64 bytes each),
// close. The responder is the host's own serve goroutine answering a
// view push — the one round trip it offers a caller that is not a
// running participant, so there is no commit leg, and the view's decode
// and re-encode (a fixed ≈ 40 of the allocations) ride along. Its
// allocs/op is the per-connection allocation count BENCH_*.json tracks.
func BenchmarkInProcExchange(b *testing.B) {
	const n = 24
	data, _ := GenerateCER(n, 7)
	scheme, err := NewSimulationScheme(64, n, 4)
	if err != nil {
		b.Fatal(err)
	}
	diss, dec := FixedPhaseCycles(n)
	shared := node.Config{
		N: n, Scheme: scheme,
		Proto: core.Config{
			K: 2, InitCentroids: SeedCentroids("cer", 2, 8), DMin: CERMin, DMax: CERMax,
			Epsilon: 1e4, MaxIterations: 1, Exchanges: 10, DissCycles: diss, DecryptCycles: dec,
			FracBits: 24, Seed: 1,
		},
		ExchangeTimeout: 10 * time.Minute,
	}
	provisioned := shared
	dep, err := node.Provision(&provisioned, data.Dim())
	if err != nil {
		b.Fatal(err)
	}
	h, err := mux.NewHost(shared, data.Dim())
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	items := make([]wireproto.ViewItem, n)
	for i := range items {
		items[i] = wireproto.ViewItem{Index: uint32(i), Addr: strings.Repeat("a", 250), Heartbeat: 1}
	}
	req := wireproto.MarshalView(items)
	lim := wireproto.NewLimits(64, 2*(data.Dim()+1), 4, n)
	dial := h.Transport()
	exchange := func() {
		conn, err := dial.Dial(1, h.Addr(), time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Minute))
		if err := wireproto.WriteFrameTarget(conn, wireproto.KindView, dep.Epoch, -1, req); err != nil {
			b.Fatal(err)
		}
		f, err := wireproto.ReadFrame(conn, lim.MaxFrameLen)
		if err != nil || f.Kind != wireproto.KindView || len(f.Payload) != len(req) {
			b.Fatalf("response of kind %d, %d bytes: %v", f.Kind, len(f.Payload), err)
		}
		f.Release()
	}
	exchange() // the book learns the roster it answers with; the pool warms
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}
