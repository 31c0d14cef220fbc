// Command benchdiff compares `go test -bench` output against the
// recorded baselines in BENCH_pipeline.json and reports regressions.
// It is advisory by default: regressions print warnings but the exit
// status stays 0, because benchmark noise on shared CI runners would
// otherwise flake the build. Pass -strict to turn warnings into a
// non-zero exit (for dedicated perf runners).
//
//	go test . ./internal/pipeline -run '^$' -bench . -benchmem | benchdiff
//	benchdiff -baseline BENCH_pipeline.json -threshold 0.2 bench.out
//
// Every metric (ns/op, B/op, allocs/op) regresses upward. A benchmark
// present in the input but absent from the baseline file (or vice
// versa) is reported informationally and never warns: new
// measurements need a recorded baseline first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark measurement, in the units go test prints.
type metrics struct {
	Ns     float64 `json:"ns_per_op"`
	Bytes  float64 `json:"bytes_per_op"`
	Allocs float64 `json:"allocs_per_op"`
}

// baselineFile mirrors BENCH_pipeline.json: each benchmark maps entry
// names to measurements plus a "baseline" string naming the entry to
// compare against (and optionally a "note").
type baselineFile struct {
	Benchmarks map[string]map[string]json.RawMessage `json:"benchmarks"`
}

// baselineFor extracts the comparison entry for one benchmark: the
// entry named by its "baseline" field. Benchmarks without a baseline
// field, or whose named entry is missing or malformed, are skipped.
func baselineFor(raw map[string]json.RawMessage) (metrics, string, bool) {
	var name string
	if b, ok := raw["baseline"]; !ok || json.Unmarshal(b, &name) != nil || name == "" {
		return metrics{}, "", false
	}
	entry, ok := raw[name]
	if !ok {
		return metrics{}, "", false
	}
	var m metrics
	if json.Unmarshal(entry, &m) != nil {
		return metrics{}, "", false
	}
	return m, name, true
}

// benchLine matches one `go test -bench` result line:
// name[-procs]  iterations  value unit [value unit ...]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts {name → metrics} from go test -bench output.
// The GOMAXPROCS suffix (-4) is stripped so lines compare against the
// same baseline regardless of -cpu. Missing -benchmem leaves Bytes
// and Allocs at -1 (not compared).
func parseBench(r io.Reader) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		got := metrics{Ns: -1, Bytes: -1, Allocs: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				got.Ns = v
			case "B/op":
				got.Bytes = v
			case "allocs/op":
				got.Allocs = v
			}
		}
		out[m[1]] = got
	}
	return out, sc.Err()
}

// compare reports one metric against its baseline; a relative growth
// beyond threshold is a regression. Baselines of 0 (or metrics the
// run did not record, v < 0) are skipped: a 0→ε change has no
// meaningful ratio and 0-alloc paths are guarded by tests instead.
func regressed(got, base, threshold float64) bool {
	if got < 0 || base <= 0 {
		return false
	}
	return got > base*(1+threshold)
}

// compareBench diffs parsed `go test -bench` output against
// BENCH_pipeline.json and returns the number of regressed metrics.
func compareBench(in io.Reader, baselinePath string, threshold float64) (int, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}

	got, err := parseBench(in)
	if err != nil {
		return 0, err
	}
	if len(got) == 0 {
		fmt.Println("benchdiff: no benchmark lines in input")
		return 0, nil
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	for _, name := range names {
		entry, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("  %-40s no recorded baseline (record it in %s)\n", name, baselinePath)
			continue
		}
		want, entryName, ok := baselineFor(entry)
		if !ok {
			fmt.Printf("  %-40s baseline entry missing or malformed\n", name)
			continue
		}
		g := got[name]
		for _, c := range []struct {
			unit      string
			got, base float64
		}{
			{"ns/op", g.Ns, want.Ns},
			{"B/op", g.Bytes, want.Bytes},
			{"allocs/op", g.Allocs, want.Allocs},
		} {
			if c.got < 0 || c.base <= 0 {
				continue
			}
			delta := (c.got - c.base) / c.base * 100
			status := "ok"
			if regressed(c.got, c.base, threshold) {
				status = "WARN regression"
				regressions++
			}
			fmt.Printf("  %-40s %-10s %12.4g vs %s %12.4g  %+7.1f%%  %s\n",
				name, c.unit, c.got, entryName, c.base, delta, status)
		}
	}
	return regressions, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_pipeline.json", "microbenchmark baseline JSON file")
	threshold := flag.Float64("threshold", 0.20, "relative regression threshold (0.20 = +20%)")
	strict := flag.Bool("strict", false, "exit non-zero when a regression is found")
	flag.Parse()

	// Bench input comes from a file argument or stdin.
	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	regressions, err := compareBench(in, *baselinePath, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	if regressions > 0 {
		fmt.Printf("benchdiff: %d metric(s) regressed more than %.0f%% (advisory", regressions, *threshold*100)
		if *strict {
			fmt.Println("; -strict set, failing)")
			os.Exit(1)
		}
		fmt.Println("; exit 0)")
	}
}
