package chiaroscuro

import (
	"context"
	"errors"
	"math"
	"testing"
)

// simSetup builds a small, fast, valid Simulated-mode configuration:
// 64 participants over the structure-preserving no-crypto scheme.
func simSetup(t *testing.T) (*Dataset, Options) {
	t.Helper()
	data, _ := GenerateCER(64, 4)
	scheme, err := NewSimulationScheme(256, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	return data, Options{
		Mode:          Simulated,
		Scheme:        scheme,
		K:             4,
		InitCentroids: SeedCentroids("cer", 4, 5),
		DMin:          CERMin, DMax: CERMax,
		Epsilon:       1e5,
		MaxIterations: 2,
		Exchanges:     25,
		Seed:          6,
	}
}

// TestNewJobValidation table-tests every invalid Options combination
// against its typed sentinel: NewJob must reject eagerly, before any
// protocol machinery spins up. A nil sentinel marks a combination that
// must be accepted.
func TestNewJobValidation(t *testing.T) {
	data, base := simSetup(t)
	shortScheme, err := NewSimulationScheme(256, 4, 2) // fewer shares than participants
	if err != nil {
		t.Fatal(err)
	}
	two, _ := GenerateCER(2, 4)
	one := NewDataset(two.Dim())
	one.Append(two.Row(0))
	nan := NewDataset(data.Dim())
	for i := 0; i < data.Len(); i++ {
		nan.Append(data.Row(i))
	}
	nan.Row(3)[5] = math.NaN()

	cases := []struct {
		name string
		data *Dataset
		mut  func(*Options)
		want error
	}{
		{"nil dataset", nil, func(o *Options) {}, ErrNoData},
		{"empty dataset", NewDataset(24), func(o *Options) {}, ErrNoData},
		{"no seeds", data, func(o *Options) { o.InitCentroids = nil }, ErrNoSeeds},
		{"all-nil seeds", data, func(o *Options) { o.InitCentroids = []Series{nil, nil} }, ErrNoSeeds},
		{"seed length mismatch", data, func(o *Options) { o.InitCentroids = []Series{{1, 2, 3}} }, ErrSeedLength},
		{"negative mode", data, func(o *Options) { o.Mode = -1 }, ErrBadMode},
		{"unknown mode", data, func(o *Options) { o.Mode = Networked + 1 }, ErrBadMode},
		{"negative K", data, func(o *Options) { o.K = -1 }, ErrBadK},
		{"negative iterations", data, func(o *Options) { o.MaxIterations = -1 }, ErrBadIterations},
		{"negative threshold", data, func(o *Options) { o.Threshold = -0.5 }, ErrBadThreshold},
		{"NaN threshold", data, func(o *Options) { o.Threshold = math.NaN() }, ErrBadThreshold},
		{"negative churn", data, func(o *Options) { o.Churn = -0.1 }, ErrBadChurn},
		{"churn one", data, func(o *Options) { o.Churn = 1 }, ErrBadChurn},
		{"NaN churn", data, func(o *Options) { o.Churn = math.NaN() }, ErrBadChurn},
		{"inverted range", data, func(o *Options) { o.DMin, o.DMax = 5, -5 }, ErrBadRange},
		{"NaN range", data, func(o *Options) { o.DMin = math.NaN() }, ErrBadRange},
		{"measure above DMax", data, func(o *Options) { o.DMax = CERMin + 1 }, ErrBadRange},
		{"NaN measure", nan, func(o *Options) {}, ErrBadRange},
		{"dp measure above DMax", data, func(o *Options) { o.Mode, o.DMax = CentralizedDP, CERMin+1 }, ErrBadRange},
		{"centralized measure above DMax", data, func(o *Options) { o.Mode, o.DMax = Centralized, CERMin+1 }, nil},
		{"negative workers", data, func(o *Options) { o.Workers = -1 }, ErrBadWorkers},
		{"negative pack slots", data, func(o *Options) { o.PackSlots = -1 }, ErrBadPackSlots},
		{"negative exchanges", data, func(o *Options) { o.Exchanges = -1 }, ErrBadCycles},
		{"negative diss cycles", data, func(o *Options) { o.DissCycles = -1 }, ErrBadCycles},
		{"negative decrypt cycles", data, func(o *Options) { o.DecryptCycles = -1 }, ErrBadCycles},
		{"negative noise shares", data, func(o *Options) { o.NoiseShares = -1 }, ErrBadCycles},
		{"sim zero epsilon", data, func(o *Options) { o.Epsilon = 0 }, ErrBadEpsilon},
		{"sim negative epsilon", data, func(o *Options) { o.Epsilon = -1 }, ErrBadEpsilon},
		{"sim infinite epsilon", data, func(o *Options) { o.Epsilon = math.Inf(1) }, ErrBadEpsilon},
		{"sim NaN epsilon", data, func(o *Options) { o.Epsilon = math.NaN() }, ErrBadEpsilon},
		{"budget plans more than epsilon", data, func(o *Options) { o.Epsilon, o.Budget = 1, UniformFast(4, 2) }, ErrBadEpsilon},
		{"uniform-fast budget with limit 0", data, func(o *Options) { o.Budget = UniformFast(o.Epsilon, 0) }, ErrBadEpsilon},
		{"dp greedy-floor budget with floor 0", data, func(o *Options) {
			o.Mode = CentralizedDP
			o.Budget, o.Scheme = GreedyFloor(math.Ln2, 0), nil
		}, ErrBadEpsilon},
		{"dp greedy budget of 0", data, func(o *Options) {
			o.Mode = CentralizedDP
			o.Budget, o.Scheme = Greedy(0), nil
		}, ErrBadEpsilon},
		{"dp no budget no epsilon", data, func(o *Options) {
			o.Mode = CentralizedDP
			o.Epsilon, o.Budget, o.Scheme = 0, nil, nil
		}, ErrBadEpsilon},
		{"nil scheme", data, func(o *Options) { o.Scheme = nil }, ErrNilScheme},
		{"too few key-shares", data, func(o *Options) { o.Scheme = shortScheme }, ErrSchemeShares},
		{"one participant", one, func(o *Options) {}, ErrTooFewParticipants},
		{"networked threshold", data, func(o *Options) {
			o.Mode = Networked
			o.Threshold = 0.1
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mut(&opts)
			if _, err := NewJob(tc.data, opts); !errors.Is(err, tc.want) {
				t.Fatalf("NewJob error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNewJobRefusesMeasuresOutsideRange: the private modes calibrate
// their noise to [DMin, DMax], so a row at the range's top is accepted
// and a row of 10⁴ (a measure 125× the top of the CER range) is
// refused with ErrBadRange, not released under too little noise.
func TestNewJobRefusesMeasuresOutsideRange(t *testing.T) {
	data, base := simSetup(t)
	for _, c := range []struct {
		v    float64
		want error
	}{{CERMax, nil}, {1e4, ErrBadRange}} {
		row := data.Row(0)
		for j := range row {
			row[j] = c.v
		}
		for _, mode := range []Mode{CentralizedDP, Simulated, Networked} {
			opts := base
			opts.Mode = mode
			if _, err := NewJob(data, opts); !errors.Is(err, c.want) {
				t.Errorf("%v with an all-%g row: %v, want %v", mode, c.v, err, c.want)
			}
		}
	}
}

// TestNewJobValidationCentralized checks the centralized modes skip the
// distributed-only requirements: no scheme, no epsilon needed.
func TestNewJobValidationCentralized(t *testing.T) {
	data, _ := GenerateCER(16, 4)
	seeds := SeedCentroids("cer", 2, 5)
	if _, err := NewJob(data, Options{InitCentroids: seeds}); err != nil {
		t.Fatalf("Centralized needs neither scheme nor epsilon: %v", err)
	}
	if _, err := NewJob(data, Options{
		Mode: CentralizedDP, InitCentroids: seeds, Budget: Greedy(math.Ln2),
		DMin: CERMin, DMax: CERMax,
	}); err != nil {
		t.Fatalf("CentralizedDP with explicit Budget needs no Epsilon: %v", err)
	}
}

// TestJobRunOnce pins that a Job is single-use.
func TestJobRunOnce(t *testing.T) {
	data, _ := GenerateCER(16, 4)
	job, err := NewJob(data, Options{InitCentroids: SeedCentroids("cer", 2, 5), MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); !errors.Is(err, ErrJobReused) {
		t.Fatalf("second Run: %v, want ErrJobReused", err)
	}
	if res, err := job.Wait(); err != nil || res == nil {
		t.Fatalf("Wait after Run: %v, %v", res, err)
	}
}

// runMode runs opts to completion under mode.
func runMode(d *Dataset, mode Mode, opts Options) (*Result, error) {
	opts.Mode = mode
	job, err := NewJob(d, opts)
	if err != nil {
		return nil, err
	}
	return job.Run(context.Background())
}

func sameCentroids(t *testing.T, got, want []Series) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("centroid count %d, want %d (non-zero)", len(got), len(want))
	}
	for c := range want {
		for j := range want[c] {
			if got[c][j] != want[c][j] {
				t.Fatalf("centroid %d[%d]: %v, want %v", c, j, got[c][j], want[c][j])
			}
		}
	}
}

// TestJobEpsilonMatchesGreedyBudget pins CentralizedDP's Budget
// default: Epsilon alone releases bit-identically to an explicit
// Greedy(Epsilon) Budget, per seed.
func TestJobEpsilonMatchesGreedyBudget(t *testing.T) {
	data, _ := GenerateCER(2000, 1)
	seeds := SeedCentroids("cer", 6, 2)
	for _, seed := range []uint64{3, 17} {
		opts := Options{
			InitCentroids: seeds, Budget: Greedy(math.Ln2),
			DMin: CERMin, DMax: CERMax, Smooth: true,
			MaxIterations: 4, Churn: 0.1, Seed: seed,
		}
		want, err := runMode(data, CentralizedDP, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Budget, opts.Epsilon = nil, math.Ln2
		got, err := runMode(data, CentralizedDP, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameCentroids(t, got.Centroids, want.Centroids)
		if got.BestIter != want.BestIter || got.TotalEpsilon != want.TotalEpsilon {
			t.Fatalf("seed %d: best/epsilon diverged: %d/%v vs %d/%v",
				seed, got.BestIter, got.TotalEpsilon, want.BestIter, want.TotalEpsilon)
		}
		if len(got.History) != len(want.History) {
			t.Fatalf("seed %d: history %d vs %d", seed, len(got.History), len(want.History))
		}
		for i := range want.History {
			sameCentroids(t, got.History[i], want.History[i])
		}
	}
}

// TestBudgetReleasesAcrossModes pins one budget rule in every private
// mode: UniformFast(ε, 3) under a cap of 10 iterations releases exactly
// 3 iterations, each spending ε/3, and the run reports ε in total.
func TestBudgetReleasesAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	const eps = 3e4 // ε/3 is exact, and the noise spares every centroid
	data, _ := GenerateCER(8, 5)
	scheme, err := NewTestScheme(128, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{CentralizedDP, Simulated, Networked} {
		t.Run(mode.String(), func(t *testing.T) {
			job, err := NewJob(data, Options{
				Mode: mode, Scheme: scheme,
				K: 2, InitCentroids: SeedCentroids("cer", 2, 6),
				DMin: CERMin, DMax: CERMax,
				Epsilon: eps, Budget: UniformFast(eps, 3), MaxIterations: 10,
				Exchanges: 8, FracBits: 24, Seed: 9, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			evs, res, err := collect(t, job, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var spent []float64
			for _, ev := range evs {
				if r, ok := ev.(IterationReleased); ok {
					spent = append(spent, r.EpsilonSpent)
				}
			}
			if len(spent) != 3 || spent[0] != eps/3 || spent[1] != eps/3 || spent[2] != eps/3 {
				t.Fatalf("released ε per iteration %v, want 3 × %v", spent, eps/3.0)
			}
			if res.TotalEpsilon != eps {
				t.Fatalf("TotalEpsilon %v, want %v", res.TotalEpsilon, eps)
			}
		})
	}
}

// collect drains a job's event stream from a background run.
func collect(t *testing.T, job *Job, ctx context.Context) ([]Event, *Result, error) {
	t.Helper()
	events := job.Events()
	go job.Run(ctx) //nolint:errcheck // outcome read through Wait
	var evs []Event
	for ev := range events {
		evs = append(evs, ev)
	}
	res, err := job.Wait()
	return evs, res, err
}

// TestJobEventsSimulated pins the acceptance shape of the stream: one
// IterationReleased per protocol iteration, phase progress for all
// three gossip phases, and a terminal Done.
func TestJobEventsSimulated(t *testing.T) {
	data, opts := simSetup(t)
	opts.TraceQuality = true
	job, err := NewJob(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	evs, res, err := collect(t, job, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var released []IterationReleased
	phases := map[Phase]bool{}
	for i, ev := range evs {
		switch e := ev.(type) {
		case IterationReleased:
			released = append(released, e)
		case PhaseProgress:
			// Of is 0 for adaptive phases (the sim's default diss/dec).
			if e.Cycle < 1 || (e.Of > 0 && e.Cycle > e.Of) {
				t.Fatalf("phase progress out of range: %+v", e)
			}
			if e.Phase == PhaseSum && e.Of == 0 {
				t.Fatalf("sum phase has a fixed budget but reported adaptive: %+v", e)
			}
			phases[e.Phase] = true
		case Done:
			if i != len(evs)-1 {
				t.Fatalf("Done at %d of %d: not terminal", i, len(evs))
			}
			if e.Err != nil {
				t.Fatalf("Done.Err = %v on a clean run", e.Err)
			}
		}
	}
	if len(released) != len(res.Traces) || len(released) != opts.MaxIterations {
		t.Fatalf("%d IterationReleased events for %d iterations (max %d)",
			len(released), len(res.Traces), opts.MaxIterations)
	}
	var cum float64
	for i, rel := range released {
		if rel.Iteration != i+1 {
			t.Fatalf("release %d has iteration %d", i, rel.Iteration)
		}
		if len(rel.Centroids) == 0 {
			t.Fatalf("iteration %d released no centroids", rel.Iteration)
		}
		if rel.EpsilonSpent <= 0 {
			t.Fatalf("iteration %d spent no budget", rel.Iteration)
		}
		cum += rel.EpsilonSpent
		if rel.EpsilonTotal != cum {
			t.Fatalf("iteration %d: EpsilonTotal = %v, want running sum %v",
				rel.Iteration, rel.EpsilonTotal, cum)
		}
		if rel.Inertia == 0 {
			t.Fatalf("iteration %d has no inertia under TraceQuality", rel.Iteration)
		}
	}
	if last := released[len(released)-1]; last.EpsilonTotal != res.TotalEpsilon {
		t.Fatalf("final EpsilonTotal %v != Result.TotalEpsilon %v", last.EpsilonTotal, res.TotalEpsilon)
	}
	// The last release is the final result, by construction.
	sameCentroids(t, released[len(released)-1].Centroids, res.Centroids)
	for _, p := range []Phase{PhaseSum, PhaseDissemination, PhaseDecryption} {
		if !phases[p] {
			t.Errorf("no PhaseProgress for the %s phase", p)
		}
	}
	if _, ok := evs[0].(Done); ok {
		t.Fatal("stream was only Done")
	}
}

// TestJobEventsChurn pins that churn resamplings surface as events.
func TestJobEventsChurn(t *testing.T) {
	data, opts := simSetup(t)
	opts.Churn = 0.2
	opts.MaxIterations = 1
	job, err := NewJob(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := collect(t, job, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	churns := 0
	for _, ev := range evs {
		if c, ok := ev.(Churn); ok {
			if c.Disconnected < 0 || c.Disconnected >= data.Len() {
				t.Fatalf("implausible churn: %+v", c)
			}
			churns++
		}
	}
	if churns == 0 {
		t.Fatal("no Churn events at 20% churn")
	}
}

// TestJobEventsCentralizedDP pins the stream in the centralized DP
// mode: one release per iteration, no phase progress.
func TestJobEventsCentralizedDP(t *testing.T) {
	data, _ := GenerateCER(500, 1)
	job, err := NewJob(data, Options{
		Mode: CentralizedDP, InitCentroids: SeedCentroids("cer", 4, 2),
		Epsilon: math.Ln2, DMin: CERMin, DMax: CERMax,
		MaxIterations: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, res, err := collect(t, job, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel, prog := 0, 0
	for _, ev := range evs {
		switch ev.(type) {
		case IterationReleased:
			rel++
		case PhaseProgress:
			prog++
		}
	}
	if rel != len(res.History) {
		t.Fatalf("%d releases for %d history entries", rel, len(res.History))
	}
	if prog != 0 {
		t.Fatalf("centralized mode emitted %d PhaseProgress events", prog)
	}
}

// TestJobEventsNetworked pins the acceptance criterion over real TCP:
// one IterationReleased per protocol iteration (participant 0's view).
func TestJobEventsNetworked(t *testing.T) {
	if testing.Short() {
		t.Skip("full crypto e2e")
	}
	data, _ := GenerateCER(8, 5)
	scheme, err := NewTestScheme(128, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(data, Options{
		Mode: Networked, Scheme: scheme,
		K: 2, InitCentroids: SeedCentroids("cer", 2, 6),
		DMin: CERMin, DMax: CERMax,
		Epsilon: 1e4, MaxIterations: 2, Exchanges: 8,
		FracBits: 24, Seed: 9, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, res, err := collect(t, job, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rel, prog int
	for _, ev := range evs {
		switch ev.(type) {
		case IterationReleased:
			rel++
		case PhaseProgress:
			prog++
		}
	}
	if rel != 2 || len(res.Traces) != 2 {
		t.Fatalf("%d IterationReleased events, %d traces, want 2/2", rel, len(res.Traces))
	}
	if prog == 0 {
		t.Fatal("networked run emitted no PhaseProgress")
	}
	if _, ok := evs[len(evs)-1].(Done); !ok {
		t.Fatalf("stream did not end with Done: %T", evs[len(evs)-1])
	}
}

// TestJobEventsAfterRun pins late subscription: a stream opened after
// the run yields exactly the terminal Done.
func TestJobEventsAfterRun(t *testing.T) {
	data, _ := GenerateCER(16, 4)
	job, err := NewJob(data, Options{InitCentroids: SeedCentroids("cer", 2, 5), MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for ev := range job.Events() {
		evs = append(evs, ev)
	}
	if len(evs) != 1 {
		t.Fatalf("late subscription saw %d events, want 1", len(evs))
	}
	if d, ok := evs[0].(Done); !ok || d.Err != nil {
		t.Fatalf("late subscription saw %+v, want clean Done", evs[0])
	}
}

// TestJobEventsEarlyBreak pins that breaking out of the stream
// unsubscribes: the run completes without blocking on the abandoned
// subscriber.
func TestJobEventsEarlyBreak(t *testing.T) {
	data, opts := simSetup(t)
	job, err := NewJob(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := job.Events()
	go job.Run(context.Background()) //nolint:errcheck // outcome read through Wait
	for range events {
		break // drop the subscription after the first event
	}
	if res, err := job.Wait(); err != nil || len(res.Centroids) == 0 {
		t.Fatalf("run did not complete after early break: %v, %v", res, err)
	}
	// Ranging the dropped iterator again must end immediately — the
	// subscription is gone, so blocking would deadlock forever.
	reranged := 0
	for range events {
		reranged++
		if reranged > 100 {
			t.Fatal("re-ranged iterator did not terminate")
		}
	}
}
