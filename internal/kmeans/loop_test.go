package kmeans

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/timeseries"
)

type ts = timeseries.Series

// spentFrom returns an accountant of the given cap with pre already
// spent: a previous run, or the iterations a resumed run completed.
func spentFrom(cap, pre float64) *dp.Accountant {
	a := &dp.Accountant{Cap: cap}
	if err := a.Spend(pre); err != nil {
		panic(err)
	}
	return a
}

// capped assigns ε = 1 to every iteration but declares a cap of Limit:
// the loop must honour the cap even though ε never runs out.
type capped struct{ Limit int }

func (c capped) Epsilon(int) float64 { return 1 }
func (c capped) MaxIterations() int  { return c.Limit }
func (c capped) Name() string        { return "capped" }

// TestLoopRules table-tests every stop and accounting rule of Loop over
// a scripted release source: one row per rule.
func TestLoopRules(t *testing.T) {
	init := []ts{{0}, {10}}
	moving := func(it int) []ts { return []ts{{float64(it)}, {10}} }
	type step struct {
		next []ts
		stop bool
	}
	cases := []struct {
		name      string
		loop      Loop
		from      int
		runs      int    // runs sharing the Loop and its accountant; the last is checked
		script    []step // the source's releases in call order; nil: moving(it), no stop
		cancelled bool

		wantIts   []int     // iterations the last run released
		wantEps   []float64 // ε the source was handed, per iteration
		want      []ts
		eps       float64 // ε the last run reports
		spent     float64 // ε the accountant holds after it
		converged bool
		wantErr   bool
	}{
		{
			name:    "budget exhausted by UniformFast(eps, 3)",
			loop:    Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			wantIts: []int{1, 2, 3}, wantEps: []float64{1, 1, 1},
			want: moving(3), eps: 3, spent: 3,
		},
		{
			name:    "MaxIterations below the budget's cap",
			loop:    Loop{MaxIterations: 2, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			wantIts: []int{1, 2}, wantEps: []float64{1, 1},
			want: moving(2), eps: 2, spent: 2,
		},
		{
			name:    "a budget's own cap",
			loop:    Loop{MaxIterations: 10, Budget: capped{Limit: 2}, Acct: spentFrom(10, 0)},
			wantIts: []int{1, 2}, wantEps: []float64{1, 1},
			want: moving(2), eps: 2, spent: 2,
		},
		{
			name:    "empty release keeps the previous centroids",
			loop:    Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			script:  []step{{next: moving(1)}, {next: []ts{nil, nil}}},
			wantIts: []int{1, 2}, wantEps: []float64{1, 1},
			want: moving(1), eps: 2, spent: 2,
		},
		{
			name:    "no release, no spend",
			loop:    Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			script:  []step{{next: moving(1)}, {next: nil}},
			wantIts: []int{1, 2}, wantEps: []float64{1, 1},
			want: moving(1), eps: 1, spent: 1,
		},
		{
			name:    "theta stops the run",
			loop:    Loop{MaxIterations: 10, Threshold: 0.5},
			script:  []step{{next: []ts{{1}, {10}}}, {next: []ts{{1.25}, {10}}}},
			wantIts: []int{1, 2}, wantEps: []float64{0, 0},
			want: []ts{{1.25}, {10}}, converged: true,
		},
		{
			name:    "theta 0 stops at an exact fixpoint",
			loop:    Loop{MaxIterations: 10},
			script:  []step{{next: []ts{{1}, {10}}}, {next: []ts{{1}, {10}}}},
			wantIts: []int{1, 2}, wantEps: []float64{0, 0},
			want: []ts{{1}, {10}}, converged: true,
		},
		{
			name: "theta compares live centroids, nil slots pass through",
			loop: Loop{MaxIterations: 10, Threshold: 0.5},
			script: []step{
				{next: []ts{{0}, nil}}, // one centroid lost: not converged
				{next: []ts{{0.25}, nil}},
			},
			wantIts: []int{1, 2}, wantEps: []float64{0, 0},
			want: []ts{{0.25}}, converged: true,
		},
		{
			name:    "one accountant refuses a second run's overspend",
			loop:    Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			runs:    2,
			wantErr: true, spent: 3,
		},
		{
			name:    "resumed at iteration 3 spends only what is left",
			loop:    Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 2)},
			from:    3,
			wantIts: []int{3}, wantEps: []float64{1},
			want: moving(3), eps: 1, spent: 3,
		},
		{
			name:    "the source stops the run",
			loop:    Loop{MaxIterations: 10, Threshold: 100},
			script:  []step{{next: []ts{{1}, nil}}, {next: []ts{{5}, {7}}, stop: true}},
			wantIts: []int{1, 2}, wantEps: []float64{0, 0},
			want: []ts{{5}, {7}},
		},
		{
			name:      "a cancelled context releases nothing",
			loop:      Loop{MaxIterations: 10, Budget: dp.UniformFast{Eps: 3, Limit: 3}, Acct: spentFrom(3, 0)},
			cancelled: true,
			wantErr:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			from := max(tc.from, 1)
			var (
				out     Outcome
				err     error
				its     []int
				epsSeen []float64
			)
			for r := 0; r < max(tc.runs, 1); r++ {
				its, epsSeen = nil, nil
				prev := init
				out, err = tc.loop.Run(ctx, from, init, func(it int, cur []ts, eps float64) ([]ts, bool, error) {
					if !reflect.DeepEqual(cur, prev) {
						t.Errorf("iteration %d started from %v, the loop was handed %v", it, cur, prev)
					}
					its, epsSeen = append(its, it), append(epsSeen, eps)
					if tc.script == nil {
						prev = moving(it)
						return prev, false, nil
					}
					if len(its) > len(tc.script) {
						t.Fatalf("iteration %d: the script has %d releases", it, len(tc.script))
					}
					s := tc.script[len(its)-1]
					prev = s.next
					return s.next, s.stop, nil
				})
			}
			if (err != nil) != tc.wantErr || tc.cancelled && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(its, tc.wantIts) || !reflect.DeepEqual(epsSeen, tc.wantEps) {
				t.Errorf("released iterations %v at ε %v, want %v at %v", its, epsSeen, tc.wantIts, tc.wantEps)
			}
			if tc.loop.Acct != nil && tc.loop.Acct.Spent() != tc.spent {
				t.Errorf("accountant spent %v, want %v", tc.loop.Acct.Spent(), tc.spent)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(out.Centroids, tc.want) || out.Converged != tc.converged {
				t.Errorf("outcome %v converged=%v, want %v converged=%v", out.Centroids, out.Converged, tc.want, tc.converged)
			}
			if out.Epsilon != tc.eps {
				t.Errorf("run reports ε %v spent, want %v", out.Epsilon, tc.eps)
			}
		})
	}
}
