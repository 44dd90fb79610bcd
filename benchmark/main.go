// Command benchmark is the repository's one benchmark: four named
// workloads, seven end-to-end metrics with fixed regression bounds, and
// a per-layer trace taken from outside the program under test. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	bash benchmark/run.sh --workload sim-dj --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1            # every workload, one child process each
//	bash benchmark/run.sh --seed 1 --trace 1  # ... and the traced pass
//	bash benchmark/run.sh --seed 1 --verify   # two sets, compared against the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: every workload, one child process each)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", runSeconds, "length of the timed window in seconds")
		trace        = flag.Int("trace", 0, "1: traced pass (per-layer metrics, spans written to -out) instead of the end-to-end run")
		verify       = flag.Bool("verify", false, "run two full sets at the same seed and compare every end-to-end metric against its bound")
		outDir       = flag.String("out", "benchmark/out", "directory for trace files")
		printSpec    = flag.Bool("spec", false, "print the benchmark's contract (BENCHMARK.json) and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(spec())
	case *workloadName != "":
		err = runOne(ctx, *workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	case *verify:
		err = runVerify(ctx, *seed, *seconds, *outDir)
	default:
		err = runAll(ctx, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report; a
// failed operation or check is an error after the report is out.
func runOne(ctx context.Context, name string, seed uint64, window time.Duration, traced bool, outDir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *result
	var err error
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
		res, err = runTraced(ctx, w, seed, window, outDir)
	} else {
		res, err = runEndToEnd(ctx, w, seed, window)
	}
	if err != nil {
		return err
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := res.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, rep.Correct = 0, false
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-18s %-32s %16.6f %s\n", w.name, m.Name, v, m.Unit)
	}
	fmt.Printf("%-18s failed_ops/attempted_ops %d/%d\n", w.name, rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runChild runs one workload in a fresh child process, so one
// workload's heap never bleeds into the next one's numbers, echoes its
// output and parses the report off its last line.
func runChild(ctx context.Context, name string, seed uint64, seconds int, traced bool, outDir string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, errors.Join(fmt.Errorf("%s: no report on the last line: %w", name, err), runErr)
	}
	return rep, runErr
}

// runSet runs every workload once and returns the reports by workload.
func runSet(ctx context.Context, seed uint64, seconds int, traced bool, outDir string) (map[string]report, error) {
	reps := map[string]report{}
	var errs []error
	for _, w := range workloadSpecs {
		rep, err := runChild(ctx, w.Name, seed, seconds, traced, outDir)
		if err != nil {
			errs = append(errs, err)
		}
		reps[w.Name] = rep
	}
	return reps, errors.Join(errs...)
}

func printTable(title string, specs []metricSpec, reps map[string]report) {
	fmt.Printf("\n== %s ==\n%-32s %-8s", title, "metric", "unit")
	for _, w := range workloadSpecs {
		fmt.Printf(" %18s", w.Name)
	}
	fmt.Println()
	for _, m := range specs {
		fmt.Printf("%-32s %-8s", m.Name, m.Unit)
		for _, w := range workloadSpecs {
			fmt.Printf(" %18.6g", reps[w.Name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-41s", "failed_ops/attempted_ops")
	for _, w := range workloadSpecs {
		fmt.Printf(" %18s", fmt.Sprintf("%d/%d", reps[w.Name].Failed, reps[w.Name].Attempted))
	}
	fmt.Println()
}

// runAll runs the end-to-end set and, with tracing asked for, the
// traced pass after it.
func runAll(ctx context.Context, seed uint64, seconds int, traced bool, outDir string) error {
	reps, err := runSet(ctx, seed, seconds, false, outDir)
	printTable(fmt.Sprintf("end-to-end, seed %d, %d s window", seed, seconds), endToEndSpecs, reps)
	if traced && err == nil {
		var layers map[string]report
		layers, err = runSet(ctx, seed, seconds, true, outDir)
		printTable(fmt.Sprintf("per-layer (traced pass), seed %d", seed), perLayerSpecs, layers)
	}
	return err
}

// runVerify is the repeatability check: two full sets back to back at
// the same seed must agree within each metric's own bound.
func runVerify(ctx context.Context, seed uint64, seconds int, outDir string) error {
	a, err := runSet(ctx, seed, seconds, false, outDir)
	if err != nil {
		return err
	}
	b, err := runSet(ctx, seed, seconds, false, outDir)
	if err != nil {
		return err
	}
	fmt.Printf("\n== verify, seed %d, %d s window ==\n%-20s %-22s %14s %14s %9s %7s\n",
		seed, seconds, "workload", "metric", "first", "second", "gap", "bound")
	failed := 0
	for _, w := range workloadSpecs {
		for _, m := range endToEndSpecs {
			x, y := a[w.Name].Metrics[m.Name].Value, b[w.Name].Metrics[m.Name].Value
			gap := math.Abs(y-x) / math.Abs(x)
			verdict := "PASS"
			if !(gap <= m.Bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %8.2f%% %6.0f%% %s\n", w.Name, m.Name, x, y, 100*gap, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d metric x workload pairs outside their bound", failed)
	}
	return nil
}
