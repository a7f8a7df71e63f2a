// Command perfbench is the repository benchmark of the CRONUS simulator.
//
// It drives the simulator only through its public calls (core.BuildPlatform,
// cluster.BootNodes, serve.New/NewCluster, (*serve.Server).Serve, the
// baseline CUDA constructors, (*core.Platform).NewSession, OpenCUDA,
// dnn.NewTrainer/Step and the rodinia Benchmark.Run) and times each call from
// outside with the host clock. Virtual-time metrics come from the program's
// own results; exact latency quantiles come from per-request records.
//
// Usage (run.py builds the binary and passes these through):
//
//	perfbench -workload serve-steady -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run is untraced and the result carries the end-to-end
// metrics; with -trace 1 a traced run (metrics registry on, CPU profile,
// stage attribution where the plane supports it) gives the per-layer
// metrics. Either set is the same on every workload (layers.go); what a
// workload measures beyond it is printed as "also:" lines. Human-readable
// lines come first; the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cronus/internal/serve"
)

// options are the knobs every workload reads.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	warmup   bool
	p99Limit float64 // capacity latency limit, virtual µs
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, correctness checks and operation
// counts.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric; a value that is not a finite number fails the run.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds a serving result's offered virtual requests to the operations
// attempted, and its shed and failed ones to the operations failed.
func (r *report) count(res *serve.Result) {
	t := sumTenants(res)
	r.attempted += int64(t.offered)
	r.failed += int64(t.shed + t.failed)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"serve-steady":  func(o options) (*report, error) { return runServing(steadySpec, o) },
	"serve-fleet":   func(o options) (*report, error) { return runServing(fleetSpec, o) },
	"serve-classic": func(o options) (*report, error) { return runServing(classicSpec, o) },
	"paper-eval":    runPaper,
}

func main() {
	name := flag.String("workload", "", "workload: serve-steady | serve-fleet | serve-classic | paper-eval")
	seed := flag.Int64("seed", 1, "workload seed, passed into the program's seeded arrival processes")
	seconds := flag.Float64("seconds", 10, "host seconds of measured passes")
	traced := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	procs := flag.Int("gomaxprocs", 2, "GOMAXPROCS for the run (at most the CPUs available)")
	warmup := flag.Bool("warmup", true, "run one untimed pass before the measured passes")
	p99Limit := flag.Float64("p99-limit-us", 250, "exact p99 limit for v_capacity_rps, virtual µs")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || *procs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d, gomaxprocs %d)\n",
			*name, *seconds, *traced, *procs)
		os.Exit(2)
	}
	if *procs > runtime.NumCPU() {
		*procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(*procs)
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, warmup: *warmup, p99Limit: *p99Limit}

	started := time.Now()
	fmt.Printf("provenance: %s\n", provenance(*name, o))
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	result := make(map[string]metric, len(want))
	for _, n := range want {
		m, ok := rep.metrics[n]
		rep.check(ok, "metric %s was not measured", n)
		if ok {
			result[n] = m
		}
	}
	if o.trace {
		rep.notes = append(rep.notes, movesNotes(result)...)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		label := "metric:"
		if _, ok := result[n]; !ok {
			label = "also:  "
		}
		fmt.Printf("%s %-32s %14.6g %s\n", label, n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	correct := len(rep.problems) == 0
	if !correct {
		// A failed check fails every operation of the run.
		rep.failed = rep.attempted
		for _, p := range rep.problems {
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
	} else {
		fmt.Println("checks: all passed")
	}
	fmt.Printf("wall: %.2fs\n", time.Since(started).Seconds())
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, result})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

// provenance renders the run's origin as one JSON object: source revision,
// toolchain, scheduler and GC settings, CPU, seed and warm-up policy.
func provenance(name string, o options) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	p := map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"gogc":       gogc,
		"warmup":     o.warmup,
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	return string(b)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
