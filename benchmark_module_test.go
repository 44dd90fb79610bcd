package chiaroscuro

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleVets vets the benchmark module (benchmark/), which
// compiles against this module's packages — its probes call adapters
// such as wireproto.MarshalSum and eesum.MergeSum — but is a module of
// its own, outside `go test ./...`. An API change that breaks it fails
// here rather than in the benchmark's run. It needs no network: the
// module's only requirement is this one, through its replace directive.
func TestBenchmarkModuleVets(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmark/: %v\n%s", err, out)
	}
}
