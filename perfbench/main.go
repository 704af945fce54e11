// Command perfbench is the repository benchmark. It measures a cubie binary
// built from the tree under test on three workloads and checks every
// output it measures:
//
//   - campaign-cold: `cubie all` in a fresh process over an empty run cache;
//   - campaign-warm: `cubie all` in a fresh process over a populated run cache;
//   - serve-mixed:   a `cubie serve` daemon under a closed loop of two clients
//     mixing cache-store reads and writes, figure fetches and runs.
//
// With --trace 0 a run reports the end-to-end metrics of its workload. With
// --trace 1 it instead runs the layer decomposition (layers.go) twice in
// fresh processes, once with spans off and once with them on, and reports
// the per-layer metrics of the traced pass. BENCHMARK.json at the
// repository root lists the metrics and why each workload was chosen.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// run.sh builds cubie and this program and passes --cubie and --work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	cubie    string // absolute path of the cubie binary under test
	runDir   string // this run's private scratch directory
	work     string // the build directory run.sh uses, kept after the run
}

var workloads = map[string]func(config) (result, error){
	"campaign-cold": func(c config) (result, error) { return campaign(c, false) },
	"campaign-warm": func(c config) (result, error) { return campaign(c, true) },
	"serve-mixed":   serveMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign-cold, campaign-warm or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: orders the serve-mixed request mix")
	seconds := fs.Int("seconds", 15, "how long to keep starting measured reps")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced decomposition")
	cubie := fs.String("cubie", "", "cubie binary under test")
	work := fs.String("work", ".bench_build", "directory for scratch files, inside the checkout")
	pass := fs.String("layers-pass", "", "run one in-process decomposition pass (off or on) and print its report")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *pass != "" {
		return layersPass(*pass, *seed, *work)
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *cubie == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench --cubie BIN --workload campaign-cold|campaign-warm|serve-mixed --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var err error
	if cfg.cubie, err = filepath.Abs(*cubie); err != nil {
		return fail(err)
	}
	if cfg.work, err = filepath.Abs(*work); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return fail(err)
	}
	if cfg.runDir, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.runDir)
	if err := prepareRunDir(cfg.runDir); err != nil {
		return fail(err)
	}

	before := refLoop()
	var res result
	if *traced == 1 {
		res, err = layers(cfg)
	} else {
		res, err = workloads[cfg.workload](cfg)
	}
	after := refLoop()
	if err != nil {
		return fail(err)
	}
	// The host calibration explains spread between runs; it never scales
	// a metric.
	fmt.Printf("host.ref_loop_s before=%.4f after=%.4f\n", before, after)
	if *traced == 1 {
		res.Metrics["host.ref_loop_s"] = metric{(before + after) / 2, "s"}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// refLoop times a fixed reference task on one goroutine: an
// allocation-free integer and floating-point loop, then strided passes over
// a 64 MiB array. Its duration tracks how fast the host's cores and memory
// are running right now.
func refLoop() float64 {
	mem := make([]uint64, 8<<20)
	for i := range mem { // fault the pages in before timing
		mem[i] = uint64(i)
	}
	t0 := time.Now()
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&1023)*1e-9
	}
	for pass := 0; pass < 4; pass++ {
		for i := pass; i < len(mem); i += 8 {
			mem[i] += x
			x = mem[i] ^ x>>3
		}
	}
	d := time.Since(t0).Seconds()
	if x == 1 || math.IsNaN(f) { // keeps the work from being optimised away
		fmt.Fprintln(os.Stderr, "perfbench: reference loop degenerated")
	}
	return d
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs must not be empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fmtMS renders a sample summary line: median, p99 and the number of
// samples at or beyond p99.
func fmtMS(label string, ms []float64) string {
	if len(ms) == 0 {
		return label + ": no samples"
	}
	p99 := quantile(ms, 0.99)
	beyond := 0
	for _, v := range ms {
		if v >= p99 {
			beyond++
		}
	}
	return fmt.Sprintf("%s: n=%d p50=%.3fms p99=%.3fms (%d samples at or beyond p99)",
		label, len(ms), quantile(ms, 0.5), p99, beyond)
}
