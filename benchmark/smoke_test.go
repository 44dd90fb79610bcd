package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables the
// program reports from: a renamed metric or a changed bound must show
// in both.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &inCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Fatalf("BENCHMARK.json disagrees with spec(); regenerate it with `bash benchmark/run.sh -spec`\nin code: %s", enc)
	}
	for _, w := range workloadSpecs {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload's end-to-end loop and traced pass at
// toy size: real keys, real sockets, packing and the mux host, one job
// each.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(ctx, w, 1, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted != 1 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d; want one clean job", res.attempted, res.failed)
			}
			for _, m := range endToEndSpecs {
				if v, ok := res.metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}

			out := t.TempDir()
			layers, err := runTraced(ctx, w, 1, time.Millisecond, out)
			if err != nil {
				t.Fatal(err)
			}
			if layers.failed != 0 {
				t.Fatalf("traced pass: %d failed operations", layers.failed)
			}
			for _, m := range perLayerSpecs {
				if _, ok := layers.metrics[m.Name]; !ok {
					t.Errorf("traced pass reports no %s", m.Name)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("trace file is not valid JSON: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file holds no span")
			}
			ids := map[int]span{}
			for _, s := range tf.Spans {
				ids[s.ID] = s
			}
			for _, s := range tf.Spans {
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				p, ok := ids[s.Parent]
				if !ok {
					t.Errorf("span %d (%s): parent %d does not resolve", s.ID, s.Name, s.Parent)
				} else if p.Job != s.Job {
					t.Errorf("span %d (%s): job %d differs from its parent's %d", s.ID, s.Name, s.Job, p.Job)
				}
			}
			if len(tf.UnstableCounts) > 0 {
				t.Errorf("probe counts did not repeat: %v", tf.UnstableCounts)
			}
		})
	}
}
