package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"chiaroscuro/internal/eesum"
	"chiaroscuro/internal/homenc/plain"
	"chiaroscuro/internal/timeseries"
)

// TestIterateStopsAtAFailedPhase: a phase that fails ends the iteration
// with its error, and Iterate touches no participant after it — no
// Propose after a failed sum, no StartDecryption after a failed
// dissemination, no release, trace or observer call after a failed
// decryption — and runs no later phase. A networked node stopped under
// a phase may still be serving from its participant, so this is the
// rule that keeps the node from racing its own serves.
func TestIterateStopsAtAFailedPhase(t *testing.T) {
	const np, n, k = 6, 3, 2
	data, centers := blobs(np, n, k, 7)
	sch, err := plain.New(nil, 256, np, 2)
	if err != nil {
		t.Fatal(err)
	}
	errFail := errors.New("phase failed")
	for _, fail := range []Phase{PhaseSum, PhaseDissemination, PhaseDecryption} {
		t.Run(fail.String(), func(t *testing.T) {
			observed, traced := false, false
			nw, err := NewNetwork(data, sch, Config{
				K: k, InitCentroids: offSeeds(centers, 2), DMin: 0, DMax: 60,
				Epsilon: 1e6, MaxIterations: 1, Exchanges: 10, Seed: 3,
				Observer: Observer{Iteration: func(IterationTrace, []timeseries.Series) { observed = true }},
			})
			if err != nil {
				t.Fatal(err)
			}
			var ps []*eesum.Participant
			var ran []Phase
			_, _, err = nw.cfg.Iterate(1, nw.cfg.InitCentroids, 1, Driver{
				Start: func(noise eesum.NoiseConfig) []*eesum.Participant {
					streams := eesum.NodeNoiseStreams(nw.rng, np)
					for i := range streams {
						ps = append(ps, StartParticipant(nw.env, i, streams[i], noise, data.Row(i), nw.cfg.InitCentroids))
					}
					return ps
				},
				Run: func(phase Phase) (int, error) {
					ran = append(ran, phase)
					switch phase {
					case fail:
						return 0, errFail
					case PhaseSum:
						return nw.runPhase(context.Background(), 1, phase, sumPhase(ps), nw.cfg.Exchanges, 0, nil)
					}
					return nw.runPhase(context.Background(), 1, phase, dissPhase(ps), 0, nw.dissCap, func() bool { return elected(ps) })
				},
				Trace: func(*IterationTrace, []timeseries.Series) { traced = true },
			})
			if !errors.Is(err, errFail) {
				t.Fatalf("Iterate returned %v, want the phase's error", err)
			}
			if want := []Phase{PhaseSum, PhaseDissemination, PhaseDecryption}[:fail+1]; !slices.Equal(ran, want) {
				t.Errorf("ran phases %v, want %v", ran, want)
			}
			for i, p := range ps {
				if fail == PhaseSum && p.Vec != nil {
					t.Errorf("participant %d proposed after a failed sum phase", i)
				}
				if fail <= PhaseDissemination && (p.DecParts != nil || p.ReleaseDim() != 0) {
					t.Errorf("participant %d started its decryption after a failed %v phase", i, fail)
				}
			}
			if observed || traced {
				t.Errorf("a failed %v phase was traced (%v) or observed (%v)", fail, traced, observed)
			}
		})
	}
}
