package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100, 1000} {
			counts := make([]int32, n)
			ForEach(workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachSerialIsInline(t *testing.T) {
	// With one worker the calls must happen on the calling goroutine,
	// in order — protocols rely on this for deterministic serial mode.
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestEnvWorkers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{{"1", 1}, {"7", 7}, {" 3 ", 3}, {"16", 16}} {
		v, err := EnvWorkers(tc.in)
		if err != nil || v != tc.want {
			t.Errorf("EnvWorkers(%q) = %d, %v; want %d", tc.in, v, err, tc.want)
		}
	}
	// A malformed override must be a loud error, not a silent no-op
	// (CHIAROSCURO_WORKERS=fast used to be dropped without a word).
	for _, bad := range []string{"", "fast", "1.5", "0", "-2", "0x4", "1e3"} {
		if _, err := EnvWorkers(bad); err == nil {
			t.Errorf("EnvWorkers(%q) accepted a malformed worker count", bad)
		}
	}
}

// TestWorkersDefaultAndOverride: the default is at least one worker, and
// the override CHIAROSCURO_WORKERS applies (setWorkers) sets it.
func TestWorkersDefaultAndOverride(t *testing.T) {
	orig := Workers()
	defer setWorkers(orig)
	if orig < 1 {
		t.Fatalf("default workers %d < 1", orig)
	}
	setWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("setWorkers(3) -> %d", got)
	}
}
