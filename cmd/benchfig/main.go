// Command benchfig regenerates the paper's tables and figures.
//
// Usage:
//
//	benchfig [-scale ci|small|paper] [-seed N] [-csv] [-json DIR] <id>|all|gobench
//
// Experiment ids: table2, fig2a..fig2f, fig3a, fig3b, fig4a, fig4b,
// fig5a, fig5b, fig6. See DESIGN.md §3 for the experiment index; the
// tables this command prints, with their notes, are the paper-vs-measured
// record.
//
// With -json DIR, every experiment additionally writes a
// machine-readable BENCH_<id>.json record (name, ns_op, row count) to
// DIR, so the performance trajectory is tracked across PRs. The
// special id "gobench" instead parses `go test -bench` output from
// stdin and writes one BENCH_<name>.json per benchmark (name, ns/op,
// and every custom metric), e.g.:
//
//	go test -bench DJ -benchmem . | benchfig -json perf gobench
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"chiaroscuro/internal/experiments"
)

// benchRecord is the machine-readable BENCH_*.json schema.
type benchRecord struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Experiment-only fields.
	Scale string `json:"scale,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	Rows  int    `json:"rows,omitempty"`
}

func main() {
	scaleFlag := flag.String("scale", "ci", "experiment scale: ci, small, or paper")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonDir := flag.String("json", "", "directory for machine-readable BENCH_*.json records")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchfig [-scale ci|small|paper] [-seed N] [-csv] [-json DIR] <id>|all|gobench\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(experiments.IDs(), " "))
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "gobench" {
		if *jsonDir == "" {
			fmt.Fprintln(os.Stderr, "gobench requires -json DIR")
			os.Exit(2)
		}
		if err := parseGoBench(os.Stdin, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	params := experiments.Params{Scale: scale, Seed: *seed}

	ids := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		gen, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(experiments.IDs(), " "))
			os.Exit(2)
		}
		start := time.Now()
		table, err := gen(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Print(table.String())
			fmt.Printf("# generated in %v at scale %s\n\n", elapsed.Round(time.Millisecond), scale)
		}
		if *jsonDir != "" {
			rec := benchRecord{
				Name:    id,
				NsPerOp: float64(elapsed.Nanoseconds()),
				Scale:   scale.String(),
				Seed:    *seed,
				Rows:    len(table.Rows),
			}
			if err := writeRecord(*jsonDir, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// parseGoBench converts standard `go test -bench` output lines
//
//	BenchmarkDJEncrypt1024-8   675   1843505 ns/op   15944 B/op   58 allocs/op
//
// into one BENCH_<name>.json record each, keeping ns/op and every
// remaining value/unit metric pair (B/op, allocs/op, custom
// b.ReportMetric units).
func parseGoBench(src *os.File, dir string) error {
	sc := bufio.NewScanner(src)
	found := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		rec := benchRecord{Name: name, Metrics: map[string]float64{}}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				rec.NsPerOp = v
			} else {
				rec.Metrics[fields[i+1]] = v
			}
		}
		if len(rec.Metrics) == 0 {
			rec.Metrics = nil
		}
		if err := writeRecord(dir, rec); err != nil {
			return err
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if found == 0 {
		return fmt.Errorf("benchfig: no benchmark lines found on stdin")
	}
	fmt.Fprintf(os.Stderr, "benchfig: wrote %d BENCH_*.json records to %s\n", found, dir)
	return nil
}

func writeRecord(dir string, rec benchRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	// Sub-benchmark names (b.Run) contain '/'; flatten them so the
	// record stays a single file directly under dir.
	name := strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(rec.Name)
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), buf, 0o644)
}
