package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `
goos: linux
goarch: amd64
pkg: dpm/internal/pipeline
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPipelinePlan 	 1887862	      1074 ns/op	     832 B/op	      10 allocs/op
BenchmarkPlanCacheHit-4   	    2000	     75875 ns/op	   12586 B/op	      88 allocs/op
BenchmarkPlanParallel/shards=8-4         	    2000	     70868 ns/op
BenchmarkAblationRedistribution/proportional-4 	100	 12345 ns/op	 3.5 J-bad
PASS
ok  	dpm	0.151s
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := got["BenchmarkPipelinePlan"]
	if !ok || plan.Ns != 1074 || plan.Bytes != 832 || plan.Allocs != 10 {
		t.Fatalf("PipelinePlan = %+v, ok=%v", plan, ok)
	}
	// GOMAXPROCS suffix stripped.
	hit, ok := got["BenchmarkPlanCacheHit"]
	if !ok || hit.Ns != 75875 || hit.Allocs != 88 {
		t.Fatalf("PlanCacheHit = %+v, ok=%v", hit, ok)
	}
	// Sub-benchmark names keep their path; missing -benchmem metrics
	// stay unset (-1).
	par, ok := got["BenchmarkPlanParallel/shards=8"]
	if !ok || par.Ns != 70868 || par.Bytes != -1 || par.Allocs != -1 {
		t.Fatalf("PlanParallel = %+v, ok=%v", par, ok)
	}
	// Custom ReportMetric units are ignored, ns/op still parsed.
	if ab := got["BenchmarkAblationRedistribution/proportional"]; ab.Ns != 12345 {
		t.Fatalf("ablation = %+v", ab)
	}
}

func TestRegressed(t *testing.T) {
	for _, tc := range []struct {
		got, base, threshold float64
		want                 bool
	}{
		{110, 100, 0.2, false}, // +10% under a 20% gate
		{121, 100, 0.2, true},  // +21% over
		{50, 100, 0.2, false},  // improvement
		{5, 0, 0.2, false},     // zero baseline skipped
		{-1, 100, 0.2, false},  // metric not recorded in the run
	} {
		if got := regressed(tc.got, tc.base, tc.threshold); got != tc.want {
			t.Errorf("regressed(%g, %g, %g) = %v, want %v", tc.got, tc.base, tc.threshold, got, tc.want)
		}
	}
}

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBenchCounts(t *testing.T) {
	base := writeFile(t, "BENCH_pipeline.json", `{
	  "benchmarks": {
	    "BenchmarkPipelinePlan": {
	      "baseline": "rec",
	      "rec": {"ns_per_op": 1000, "bytes_per_op": 800, "allocs_per_op": 10}
	    }
	  }
	}`)
	out := "BenchmarkPipelinePlan 100 2000 ns/op 800 B/op 10 allocs/op\n"
	n, err := compareBench(strings.NewReader(out), base, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("doubled ns/op: %d regressions, want 1", n)
	}
	n, err = compareBench(strings.NewReader("BenchmarkPipelinePlan 100 900 ns/op 700 B/op 9 allocs/op\n"), base, 0.2)
	if err != nil || n != 0 {
		t.Errorf("improved run: n=%d err=%v, want 0", n, err)
	}
}
