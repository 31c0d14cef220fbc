// Command perfbench is the repository's end-to-end benchmark. It boots
// the real dpmd binary with pinned flags, drives it over HTTP and UDP
// from one process on at most two connections, checks every reply, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	bash perfbench/run.sh --workload plan_hot --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --smoke
//
// Workloads:
//
//	plan_hot        Poisson arrivals at 2000/s, every timed /v1/plan a cache hit
//	plan_cold       Poisson arrivals at 1000/s, every /v1/plan a cache miss
//	telemetry_loop  256 devices, 40 flush windows/s over UDP + /v1/ingest/flush
//
// With --trace 0 the metrics are the end-to-end ones, measured against
// dpmd with nothing traced. With --trace 1 the same window runs again
// for dpmd's counters, then the seeded streams of all three workloads
// replay in process with a span around every call into a layer's
// public function; the per-layer metrics come from those spans, the
// spans are written under --out, and a ledger of the workload's
// per-operation cost by layer is printed.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is how many times a run boots dpmd and prepares the
	// workload; setup_s is the median, and the last boot is measured.
	setupRepeats = 15
	// warmup is the untimed lead-in of every drive.
	warmup = 500 * time.Millisecond
	// heldOutSeed is the seed a performance claim must also hold on
	// after being developed against other seeds.
	heldOutSeed = 104729
	// maxLagP99 marks an open-loop run invalid: when the generator
	// itself sends this late, the latencies no longer measure dpmd.
	maxLagP99 = 20 * time.Millisecond
)

var workloads = []string{"plan_hot", "plan_cold", "telemetry_loop"}

// ungated end-to-end metrics are printed on every run but left out of
// the result object, whose metrics each carry a regression bound in
// BENCHMARK.json: on a shared virtual machine the p99 is set by how
// long the host deschedules a vCPU, and its spread across seeds exceeds
// any useful bound. error_ratio is the result object's failed/attempted.
var ungated = map[string]bool{"latency_p99_ms": true}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	repeats  int
	dpmd     string
	repo     string
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	o := options{repeats: setupRepeats}
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 30, "length of the measured window in seconds")
	traceFlag := fl.Int("trace", 0, "1 = report per-layer metrics from the traced in-process replay")
	smoke := fl.Bool("smoke", false, "run every workload for one second and check its outputs")
	fl.StringVar(&o.dpmd, "dpmd", "", "path to the dpmd binary (built from this checkout)")
	fl.StringVar(&o.repo, "repo", ".", "repository root")
	fl.StringVar(&o.out, "out", ".bench_build", "directory the span files are written to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if o.dpmd == "" {
		fmt.Fprintln(stderr, "perfbench: -dpmd is required (run.sh builds it)")
		return 2
	}
	o.window = time.Duration(*seconds * float64(time.Second))
	o.traced = *traceFlag == 1
	ctx := context.Background()
	if err := pinProcess(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	debug.SetGCPercent(400) // keep the client's own GC out of the measured latencies

	if *smoke {
		return runSmoke(ctx, o, stdout, stderr)
	}
	if !validWorkload(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	if o.window <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	rep, err := benchmark(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, o.traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func validWorkload(w string) bool {
	for _, name := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runSmoke drives every workload for a second with one setup and
// reports whether each one's outputs checked out.
func runSmoke(ctx context.Context, o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		so := o
		so.workload, so.window, so.repeats, so.traced = w, time.Second, 1, false
		rep, err := benchmark(ctx, so)
		if err != nil {
			fmt.Fprintf(stdout, "smoke %-15s ERROR %v\n", w, err)
			code = 1
			continue
		}
		status := "ok"
		if !rep.correct || rep.failed > 0 {
			status = "FAIL " + strings.Join(rep.reasons, "; ")
			code = 1
		}
		fmt.Fprintf(stdout, "smoke %-15s %s attempted=%d failed=%d p50=%.3fms\n",
			w, status, rep.attempted, rep.failed, rep.e2e.value("latency_p50_ms"))
	}
	return code
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricList []metric

func (l metricList) value(name string) float64 {
	for _, m := range l {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	reasons           []string
	e2e, layers       metricList
	info              []string // human-readable context lines
	env               map[string]any
	e2eMeanMS         float64 // mean latency of the timed operations
}

// print writes the human-readable lines, then the result object as the
// last line.
func (r *report) print(w io.Writer, traced bool) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, reason := range r.reasons {
		fmt.Fprintf(w, "failure %s\n", reason)
	}
	fmt.Fprintf(w, "e2e %-22s %.6g ratio\n", "error_ratio", ratio(float64(r.failed), float64(r.attempted)))
	for _, m := range r.e2e {
		fmt.Fprintf(w, "e2e %-22s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.layers {
		fmt.Fprintf(w, "layer %-28s %.6g %s\n", m.name, m.value, m.unit)
	}
	var shown metricList
	for _, m := range r.e2e {
		if !ungated[m.name] {
			shown = append(shown, m)
		}
	}
	if traced {
		shown = r.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(shown))
	for _, m := range shown {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %g", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// drive is what one workload's measured window observed.
type drive struct {
	log     *opLog
	elapsed time.Duration
	// checks are the workload's end-of-run reconciliation failures and
	// the operations they spoil.
	checks  []string
	spoiled int
	confirm []time.Duration // telemetry: per-window confirmation waits
	udpSent uint64
}

// benchmark runs one workload: prepare inputs, boot and set up dpmd
// repeatedly, measure one window, check, and (traced) replay in
// process.
func benchmark(ctx context.Context, o options) (*report, error) {
	streams, err := prepareStreams(ctx, o)
	if err != nil {
		return nil, err
	}
	ingest := o.workload == "telemetry_loop"
	var d *daemon
	var setups []float64
	for k := 0; k < o.repeats; k++ {
		t0 := time.Now()
		dd, err := startDaemon(o.dpmd, ingest)
		if err != nil {
			return nil, err
		}
		err = streams.setup(ctx, o.workload, dd)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			dd.stop() //nolint:errcheck // the setup failure is the error worth reporting
			return nil, err
		}
		if k < o.repeats-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("stopping a setup dpmd: %w", err)
			}
			continue
		}
		d = dd
	}
	res, err := measure(ctx, o, d, streams)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("dpmd did not shut down cleanly: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	res.e2e = append(res.e2e, metric{"setup_s", percentile(setups, 50), "s"})
	res.env = environment(o, d)
	if o.traced {
		if err := traceLayers(ctx, o, streams, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure drives the workload once against a set-up dpmd and derives
// the end-to-end metrics plus dpmd's counter-based layer metrics.
func measure(ctx context.Context, o options, d *daemon, s *streamSet) (*report, error) {
	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	sampler := newCPUSampler(d.pid())
	dr, err := s.drive(ctx, o.workload, d, sampler.begin)
	samples, serr := sampler.finish()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	cpu1, err := procCPUSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	if o.workload == "telemetry_loop" {
		if err := s.reconcile(ctx, d, before, after, dr); err != nil {
			return nil, err
		}
	}
	log := dr.log
	rep := &report{correct: true, reasons: log.reasons}
	rep.attempted = log.attempted
	rep.failed = min(log.failed+dr.spoiled, log.attempted)
	rep.reasons = append(rep.reasons, dr.checks...)
	done := float64(log.attempted - log.failed)
	thr, p50, p99, cpu := slices(samples, log.lat, log.done)
	if len(p50) == 0 {
		return nil, fmt.Errorf("no operation completed inside the %s window", o.window)
	}
	rep.e2e = metricList{
		{"throughput_ops_s", percentile(thr, 50), "1/s"},
		{"latency_p50_ms", percentile(p50, 50), "ms"},
		{"latency_p99_ms", percentile(p99, 50), "ms"},
		{"server_cpu_us_per_op", cpuPerOpUS(cpu), "us"},
		{"server_rss_mb", rss, "MB"},
	}
	rep.info = append(rep.info, fmt.Sprintf("info timed_ops=%d window_s=%.3f slices=%d p99_groups=%d dpmd_cpu_s=%.2f ops_incl_warmup=%.0f",
		len(log.lat), dr.elapsed.Seconds(), len(thr), len(p99), cpu1-cpu0, done))
	rep.info = append(rep.info, fmt.Sprintf("info whole_window throughput=%.6g p50_ms=%.6g p99_ms=%.6g cpu_us_per_op=%.6g",
		float64(len(log.lat))/dr.elapsed.Seconds(), percentile(millis(log.lat), 50), percentile(millis(log.lat), 99), ratio((cpu1-cpu0)*1e6, done)))
	if len(log.lag) > 0 {
		lag := millis(log.lag)
		p99 := percentile(lag, 99)
		rep.info = append(rep.info, fmt.Sprintf("info generator_lag_ms mean=%.4f p99=%.4f", mean(lag), p99))
		if p99 > float64(maxLagP99)/float64(time.Millisecond) {
			rep.correct = false
			rep.reasons = append(rep.reasons, fmt.Sprintf("invalid run: the generator's p99 lag %.2f ms exceeds %s", p99, maxLagP99))
		}
	}
	if len(dr.confirm) > 0 {
		rep.info = append(rep.info, fmt.Sprintf("info confirm_wait_us mean=%.1f", mean(millis(dr.confirm))*1e3))
	}
	if rep.failed > 0 {
		rep.correct = false
	}
	// Counter-based layer metrics, from dpmd's own /metrics.
	ops := math.Max(done, 1)
	planHits := delta(before, after, "dpmd_cache_shard_hits_total", `cache="plan"`)
	planMisses := delta(before, after, "dpmd_cache_shard_misses_total", `cache="plan"`)
	admitted := delta(before, after, "dpmd_admission_admitted_total")
	shed := delta(before, after, "dpmd_admission_shed_total") + delta(before, after, "dpmd_admission_expired_total")
	lines := delta(before, after, "dpmd_ingest_lines_total")
	received := delta(before, after, "dpmd_ingest_datagrams_total")
	slots := delta(before, after, "dpmd_ingest_slots_closed_total")
	rep.layers = metricList{
		{"plancache.hit_ratio", ratio(planHits, planHits+planMisses), "ratio"},
		{"plancache.evictions_per_op", delta(before, after, "dpmd_cache_shard_evictions_total", `cache="plan"`) / ops, "1/op"},
		{"resilience.shed_ratio", ratio(shed, admitted+shed), "ratio"},
		{"ingest.drop_ratio", ratio(delta(before, after, "dpmd_ingest_lines_dropped_total"), lines), "ratio"},
		{"ingest.udp_loss_ratio", ratio(float64(dr.udpSent)-received, float64(dr.udpSent)), "ratio"},
		{"ingest.replans_per_kslot", 1000 * ratio(delta(before, after, "dpmd_ingest_replans_total"), slots), "1/kslot"},
		{"runtime.gc_per_kop", 1000 * delta(before, after, "go_gc_cycles_total") / ops, "1/kop"},
		{"runtime.heap_mb", after.sum("go_heap_alloc_bytes") / (1 << 20), "MB"},
	}
	rep.e2eMeanMS = mean(millis(log.lat))
	return rep, nil
}

// environment records what the run depended on.
func environment(o options, d *daemon) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	digest, err := sourceDigest(o.repo)
	if err != nil {
		digest = "unavailable: " + err.Error()
	}
	return map[string]any{
		"workload":        o.workload,
		"seed":            o.seed,
		"held_out_seed":   heldOutSeed,
		"seconds":         o.window.Seconds(),
		"traced":          o.traced,
		"dpmd_flags":      strings.Join(d.args, " "),
		"dpmd_gomaxprocs": 1,
		"client_cpu":      cpus.client,
		"dpmd_cpu":        cpus.server,
		"nproc":           runtime.NumCPU(),
		"go":              runtime.Version(),
		"commit":          commit,
		"source_sha256":   digest,
		"client_conns":    clientConns,
		"setup_repeats":   o.repeats,
	}
}

// sourceDigest hashes the repository's Go sources and module files, so
// a run names the exact code it measured even outside a git checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", errors.New("no Go sources found")
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
