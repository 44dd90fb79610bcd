// Command chiaroscurod is the Chiaroscuro node daemon: one process per
// participant, speaking the binary wire protocol of internal/wireproto
// and running the full encrypted Diptych — the encrypted sum of the
// means and the noise, correction dissemination, epidemic threshold decryption — against
// its peers over TCP.
//
// Every daemon of a population is provisioned with the same protocol
// parameters and seed (which fix the deterministic exchange schedule)
// and its own key file naming its participant index. A two-node run:
//
//	chiaroscurod -genkeys /tmp/keys -population 2
//	chiaroscurod -key-file /tmp/keys/node-0.json -population 2 \
//	    -listen 127.0.0.1:7000 -metrics-addr 127.0.0.1:9100
//	chiaroscurod -key-file /tmp/keys/node-1.json -population 2 \
//	    -listen 127.0.0.1:7001 -bootstrap 127.0.0.1:7000
//
// -vnodes N hosts the key file's participant and the N-1 after it as
// virtual nodes behind one listener (internal/mux); plain daemons and
// such hosts join the same population.
//
// SECURITY: -genkeys emits test-scheme key files (deterministic
// precomputed primes, zero secrecy) so a population can be provisioned
// with a copy-paste. A real deployment must provision real threshold
// key shares out of band.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/cmdinput"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/mux"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/timeseries"
)

// progress mirrors the node's observer callbacks for the live
// /progress endpoint: the current phase position and every released
// iteration so far, as the event stream of the public Job API exposes
// them in-process.
type progress struct {
	mu sync.Mutex
	p  progressView
}

type progressView struct {
	Iteration int             `json:"iteration"`
	Phase     string          `json:"phase"`
	Cycle     int             `json:"cycle"`
	Of        int             `json:"of"`
	Released  []iterationView `json:"released"`
}

type iterationView struct {
	Iteration    int                 `json:"iteration"`
	Centroids    []timeseries.Series `json:"centroids"`
	EpsilonSpent float64             `json:"epsilon_spent"`
}

// observer returns the protocol hooks feeding this progress tracker.
func (pr *progress) observer() core.Observer {
	return core.Observer{
		Phase: func(iter int, phase core.Phase, cycle, of int) {
			pr.mu.Lock()
			pr.p.Iteration, pr.p.Phase, pr.p.Cycle, pr.p.Of = iter, phase.String(), cycle, of
			pr.mu.Unlock()
		},
		Iteration: func(tr core.IterationTrace, released []timeseries.Series) {
			pr.mu.Lock()
			pr.p.Released = append(pr.p.Released, iterationView{
				Iteration:    tr.Iteration,
				Centroids:    released,
				EpsilonSpent: tr.EpsilonSpent,
			})
			pr.mu.Unlock()
		},
	}
}

func (pr *progress) snapshot() progressView {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	v := pr.p
	v.Released = append([]iterationView(nil), pr.p.Released...)
	return v
}

// keyFile is the provisioning record one daemon boots from.
type keyFile struct {
	Scheme    string `json:"scheme"` // "dj-test"
	KeyBits   int    `json:"key_bits"`
	Degree    int    `json:"degree"` // Damgård–Jurik s
	Shares    int    `json:"shares"`
	Threshold int    `json:"threshold"`
	Index     int    `json:"index"` // participant index (key-share Index+1)
}

func main() {
	var (
		genkeys     = flag.String("genkeys", "", "write test key files for the whole population into this directory and exit")
		keyPath     = flag.String("key-file", "", "this node's key file (JSON, see -genkeys)")
		listen      = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		bootstrap   = flag.String("bootstrap", "", "address of any live peer (empty for the first node)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus-style text metrics on this address (empty = off)")
		population  = flag.Int("population", 2, "population size (all daemons must agree)")
		dataset     = flag.String("dataset", "cer", "built-in generator: cer or numed")
		csvPath     = flag.String("csv", "", "CSV file with one series per row (row = participant index)")
		k           = flag.Int("k", 2, "number of clusters")
		eps         = flag.Float64("epsilon", math.Ln2, "total privacy budget")
		maxIt       = flag.Int("iterations", 1, "protocol iterations (fixed schedule)")
		exchanges   = flag.Int("exchanges", 0, "sum-phase gossip cycles (0 = Theorem 3 default)")
		dissCycles  = flag.Int("diss-cycles", 0, "correction-dissemination cycles (0 = derived from population, threshold, churn)")
		decCycles   = flag.Int("decrypt-cycles", 0, "epidemic-decryption cycles (0 = derived from population, threshold, churn)")
		smooth      = flag.Bool("smooth", true, "SMA smoothing of perturbed means")
		seed        = flag.Uint64("seed", 1, "shared deterministic seed (fixes the exchange schedule)")
		fracBits    = flag.Uint("frac-bits", 24, "fixed-point fractional bits")
		packSlots   = flag.Int("pack-slots", 0, "ciphertext packing slots (0 = auto from the plaintext space, 1 = off; all daemons must agree)")
		keyBits     = flag.Int("keybits", 128, "test-scheme key size for -genkeys (128/256/512/1024)")
		degree      = flag.Int("degree", 4, "Damgård–Jurik degree s for -genkeys")
		tau         = flag.Int("threshold", 0, "decryption threshold for -genkeys (0 = population/3, min 2)")
		timeout     = flag.Duration("exchange-timeout", 30*time.Second, "per-exchange blocking step bound")
		joinTimeout = flag.Duration("join-timeout", 5*time.Minute, "roster bootstrap bound")
		retries     = flag.Int("retries", 0, "exchange retry budget per slot (fault policy)")
		suspicionK  = flag.Int("suspicion-k", 0, "evict a peer after this many consecutive exchange failures (0 = never)")
		vnodes      = flag.Int("vnodes", 1, "host this many consecutive participants (key-file index onward) as virtual nodes behind one listener")
		stateDir    = flag.String("state-dir", "", "directory for this node's durable crash-recovery journal; relaunch with the same -state-dir after a crash to resume the run")
	)
	flag.Parse()

	if *genkeys != "" {
		if err := writeKeyFiles(*genkeys, *population, *keyBits, *degree, *tau); err != nil {
			fatal(err)
		}
		return
	}
	if *keyPath == "" {
		fatal(fmt.Errorf("either -genkeys or -key-file is required"))
	}
	kf, err := loadKeyFile(*keyPath, *population)
	if err != nil {
		fatal(err)
	}
	scheme, err := chiaroscuro.NewTestScheme(kf.KeyBits, kf.Degree, kf.Shares, kf.Threshold)
	if err != nil {
		fatal(err)
	}

	data, dmin, dmax, kind, err := cmdinput.LoadData(*csvPath, *dataset, *population, *seed)
	if err != nil {
		fatal(err)
	}
	if data.Len() != *population {
		fatal(fmt.Errorf("dataset has %d series for a population of %d", data.Len(), *population))
	}
	if *vnodes > 1 && *stateDir != "" {
		fatal(fmt.Errorf("-state-dir needs one daemon per participant; run with -vnodes 1 to get crash recovery"))
	}
	seeds := chiaroscuro.SeedCentroids(kind, *k, *seed+1)

	prog := &progress{}
	proto := core.Config{
		K:             *k,
		InitCentroids: seeds,
		DMin:          dmin,
		DMax:          dmax,
		Epsilon:       *eps,
		MaxIterations: *maxIt,
		Smooth:        *smooth,
		Exchanges:     *exchanges,
		DissCycles:    *dissCycles,
		DecryptCycles: *decCycles,
		FracBits:      *fracBits,
		PackSlots:     *packSlots,
		Seed:          *seed,
		Observer:      prog.observer(),
	}

	// -state-dir: every commit point is fsynced into a per-participant
	// journal; a daemon relaunched with the same -state-dir (after a
	// crash, a kill -9, or a SIGTERM) resumes the run where the journal
	// left it, announcing itself with a Resume handshake instead of
	// rejoining from scratch. SIGTERM flushes through the same path:
	// the node's Close closes the journal after the last synced commit.
	var journal func(cfg *node.Config) error
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fatal(err)
		}
		journal = func(cfg *node.Config) error {
			st, err := node.OpenState(filepath.Join(*stateDir, fmt.Sprintf("node-%d.journal", cfg.Index)))
			if err != nil {
				return err
			}
			if st.Resuming() {
				fmt.Printf("chiaroscurod: journal %s holds a prior run; resuming\n", st.Path())
			}
			cfg.State = st
			return nil
		}
	}
	// The hosted participants, key-file index onward: one listens on its
	// own, several (-vnodes) share one mux listener, its address book and
	// schedule mirror, and exchange in process. The run is bit-identical
	// either way; /progress follows the first hosted participant.
	pop, err := mux.Launch(node.Config{
		N:               *population,
		Scheme:          scheme,
		Proto:           proto,
		Listen:          *listen,
		Bootstrap:       *bootstrap,
		ExchangeTimeout: *timeout,
		JoinTimeout:     *joinTimeout,
		Policy:          node.Policy{MaxRetries: *retries, SuspicionK: *suspicionK},
	}, data, kf.Index, *vnodes, *vnodes, journal)
	if err != nil {
		fatal(err)
	}
	defer pop.Close()
	if *vnodes == 1 {
		fmt.Printf("chiaroscurod: node %d/%d listening on %s\n", kf.Index, *population, pop.Addr())
	} else {
		fmt.Printf("chiaroscurod: hosting nodes %d–%d of %d on %s (virtual)\n",
			kf.Index, kf.Index+*vnodes-1, *population, pop.Addr())
	}

	diss, dec := pop.Nodes()[0].PhaseCycles()
	how := "derived"
	if *dissCycles > 0 || *decCycles > 0 {
		how = "set by flag, 0 = derived"
	}
	fmt.Printf("chiaroscurod: phases: diss %d, dec %d cycles (%s)\n", diss, dec, how)

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, pop, prog)
	}

	// SIGINT/SIGTERM cancel the run: every hosted participant closes its
	// listener and live connections, the peers time the slot out, and the
	// daemon exits instead of hanging on half-finished exchanges.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("chiaroscurod: waiting for %d remote peers (bootstrap %q)\n", *population-*vnodes, *bootstrap)
	// Join polls the roster and is not context-aware; close the
	// population on cancellation so a SIGINT during the wait interrupts
	// it promptly instead of sitting out the join timeout.
	stopWatch := context.AfterFunc(ctx, func() { _ = pop.Close() })
	defer stopWatch()
	if err := pop.Join(); err != nil {
		if ctx.Err() != nil {
			fmt.Println("chiaroscurod: interrupted while waiting for peers")
			return
		}
		fatal(err)
	}
	fmt.Println("chiaroscurod: roster complete, protocol starting")
	start := time.Now()
	results, err := pop.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("chiaroscurod: interrupted; listener and connections closed cleanly")
		return
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chiaroscurod: run complete in %s\n", time.Since(start).Round(time.Millisecond))
	res := results[0]
	for _, tr := range res.Traces {
		fmt.Printf("  iter %d: centroids %d→%d, ε %.4f, cycles sum/diss/dec %d/%d/%d\n",
			tr.Iteration, tr.CentroidsIn, tr.CentroidsOut, tr.EpsilonSpent,
			tr.SumCycles, tr.DissCycles, tr.DecryptCycles)
	}
	c := pop.Counters()
	fmt.Printf("final: %d centroids (node %d's view), ε spent %.4f, exchanges %d (init %d / resp %d), timeouts %d, sent %.1f kB, recv %.1f kB\n",
		len(res.Centroids), kf.Index, res.TotalEpsilon, c.Exchanges(), c.Initiated, c.Responded,
		c.Timeouts, float64(c.BytesSent)/1024, float64(c.BytesRecv)/1024)
	for i, ctr := range res.Centroids {
		preview := ctr
		if len(preview) > 6 {
			preview = preview[:6]
		}
		fmt.Printf("  centroid %d: %.3f…\n", i, preview)
	}
	// Every participant releases the one elected vector: the digests of
	// all hosted nodes, and of every other daemon, must agree.
	for i, r := range results {
		fmt.Printf("chiaroscurod: node %d release digest %016x\n", pop.Nodes()[i].Index(), releaseDigest(r.Centroids))
	}
	if *vnodes == 1 {
		_ = pop.Nodes()[0].Leave()
	}
}

func writeKeyFiles(dir string, population, keyBits, degree, tau int) error {
	if population < 2 {
		return fmt.Errorf("population must be at least 2")
	}
	if tau <= 0 {
		tau = population / 3
		if tau < 2 {
			tau = 2
		}
	}
	// Validate the parameters build a scheme before emitting anything.
	if _, err := chiaroscuro.NewTestScheme(keyBits, degree, population, tau); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < population; i++ {
		kf := keyFile{Scheme: "dj-test", KeyBits: keyBits, Degree: degree, Shares: population, Threshold: tau, Index: i}
		raw, err := json.MarshalIndent(kf, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("node-%d.json", i))
		if err := os.WriteFile(path, append(raw, '\n'), 0o600); err != nil {
			return err
		}
	}
	fmt.Printf("chiaroscurod: wrote %d test key files to %s (NO security; see -h)\n", population, dir)
	return nil
}

func loadKeyFile(path string, population int) (keyFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return keyFile{}, err
	}
	var kf keyFile
	if err := json.Unmarshal(raw, &kf); err != nil {
		return keyFile{}, fmt.Errorf("key file %s: %w", path, err)
	}
	if kf.Scheme != "dj-test" {
		return keyFile{}, fmt.Errorf("key file %s: unsupported scheme %q", path, kf.Scheme)
	}
	if kf.Shares < population {
		return keyFile{}, fmt.Errorf("key file has %d shares for a population of %d", kf.Shares, population)
	}
	if kf.Index < 0 || kf.Index >= population {
		return keyFile{}, fmt.Errorf("key file index %d out of range", kf.Index)
	}
	return kf, nil
}

// serveMetrics exposes wire counters and protocol progress: Prometheus
// text counters on /metrics, and the live protocol position — current
// phase cycle plus every released per-iteration centroid set so far —
// as JSON on /progress (the daemon-side view of the Job event stream).
// The counters aggregate across every hosted participant (a host's
// membership traffic included), and the iteration/phase gauges follow
// the first hosted participant (all stay in lockstep by construction).
func serveMetrics(addr string, pop *mux.Population, prog *progress) {
	nodes := pop.Nodes()
	routes := http.NewServeMux()
	routes.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(prog.snapshot())
	})
	routes.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		c := pop.Counters()
		iter, phase := nodes[0].Progress()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# HELP chiaroscuro_exchanges_total Completed exchanges by role.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_exchanges_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_exchanges_total{role=\"initiator\"} %d\n", c.Initiated)
		fmt.Fprintf(w, "chiaroscuro_exchanges_total{role=\"responder\"} %d\n", c.Responded)
		fmt.Fprintf(w, "# HELP chiaroscuro_exchange_timeouts_total Exchanges abandoned on a deadline.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_exchange_timeouts_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_exchange_timeouts_total %d\n", c.Timeouts)
		fmt.Fprintf(w, "# HELP chiaroscuro_frames_rejected_total Frames refused (version/epoch/bounds).\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_frames_rejected_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_frames_rejected_total %d\n", c.Rejected)
		fmt.Fprintf(w, "# HELP chiaroscuro_bad_frames_total Malformed or over-limit frames that dropped a connection.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_bad_frames_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_bad_frames_total %d\n", c.BadFrames)
		fmt.Fprintf(w, "# HELP chiaroscuro_exchange_retries_total Exchange attempts retried after a transient failure.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_exchange_retries_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_exchange_retries_total %d\n", c.Retries)
		fmt.Fprintf(w, "# HELP chiaroscuro_peers_suspected_total Consecutive-failure strikes recorded against peers.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_peers_suspected_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_peers_suspected_total %d\n", c.Suspected)
		fmt.Fprintf(w, "# HELP chiaroscuro_peers_evicted_total Peers evicted from the address book by suspicion.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_peers_evicted_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_peers_evicted_total %d\n", c.Evicted)
		fmt.Fprintf(w, "# HELP chiaroscuro_peers_resumed_total Resume announcements accepted from relaunched peers.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_peers_resumed_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_peers_resumed_total %d\n", c.Resumed)
		fmt.Fprintf(w, "# HELP chiaroscuro_wire_bytes_total Wire bytes by direction.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_wire_bytes_total counter\n")
		fmt.Fprintf(w, "chiaroscuro_wire_bytes_total{direction=\"sent\"} %d\n", c.BytesSent)
		fmt.Fprintf(w, "chiaroscuro_wire_bytes_total{direction=\"received\"} %d\n", c.BytesRecv)
		fmt.Fprintf(w, "# HELP chiaroscuro_iteration Current protocol iteration.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_iteration gauge\n")
		fmt.Fprintf(w, "chiaroscuro_iteration %d\n", iter)
		fmt.Fprintf(w, "# HELP chiaroscuro_phase Current phase (0 sum, 1 dissemination, 2 decryption).\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_phase gauge\n")
		fmt.Fprintf(w, "chiaroscuro_phase %d\n", phase)
		fmt.Fprintf(w, "# HELP chiaroscuro_roster_size Participants known to the address book.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_roster_size gauge\n")
		fmt.Fprintf(w, "chiaroscuro_roster_size %d\n", nodes[0].RosterSize())
		fmt.Fprintf(w, "# HELP chiaroscuro_virtual_nodes Participants hosted by this process.\n")
		fmt.Fprintf(w, "# TYPE chiaroscuro_virtual_nodes gauge\n")
		fmt.Fprintf(w, "chiaroscuro_virtual_nodes %d\n", len(nodes))
	})
	// /healthz reports where in the protocol the daemon is and how far
	// its crash-recovery journal trails the synced tail (both zero when
	// running without -state-dir): enough for an operator to tell a
	// healthy daemon from one wedged mid-phase or accumulating unsynced
	// journal writes.
	routes.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		iter, phase := nodes[0].Progress()
		entries, lagBytes := nodes[0].JournalLag()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"iteration\":%d,\"phase\":%q,\"journal_lag\":{\"entries\":%d,\"bytes\":%d}}\n",
			iter, core.Phase(phase).String(), entries, lagBytes)
	})
	srv := &http.Server{Addr: addr, Handler: routes, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "chiaroscurod: metrics:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chiaroscurod:", err)
	os.Exit(1)
}

// releaseDigest is FNV-1a over a release's float bits, as the benchmark
// computes it: equal digests mean bit-identical centroids.
func releaseDigest(centroids []timeseries.Series) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	put(uint64(len(centroids)))
	for _, c := range centroids {
		put(uint64(len(c)))
		for _, v := range c {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}
