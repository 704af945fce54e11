package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// minReps is the fewest measured reps any workload runs, so a median and a
// spread exist even when one rep outlasts --seconds (a cold campaign takes
// 12–16 s on a 2-core VM).
const minReps = 2

// outcome collects one workload run's measurements.
type outcome struct {
	setup             []float64 // seconds of each set-up
	walls, cpus, rss  []float64 // per measured rep
	latMS             []float64 // per successful request
	busy              float64   // seconds the measured reps took, summed
	attempted, failed int
}

// result turns the measurements into the end-to-end metrics. On the
// campaign workloads a request is one whole `cubie all` process.
func (o outcome) result() (result, error) {
	if len(o.walls) == 0 || len(o.latMS) == 0 || len(o.setup) == 0 {
		return result{}, fmt.Errorf("no rep completed (%d of %d operations failed)", o.failed, o.attempted)
	}
	return result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(o.setup), "s"},
			"wall_s":      {median(o.walls), "s"},
			"cpu_s":       {median(o.cpus), "s"},
			"peak_rss_mb": {median(o.rss), "MiB"},
			"req_per_s":   {float64(len(o.latMS)) / o.busy, "1/s"},
			"req_p50_ms":  {quantile(o.latMS, 0.5), "ms"},
			"req_p99_ms":  {quantile(o.latMS, 0.99), "ms"},
		},
	}, nil
}

// campaign measures `cubie all`, each rep in a fresh process. Cold reps
// each get an empty run-cache directory: the dataset, pack and slab caches
// are process-wide, so only a fresh process is really cold. Warm reps all
// read the cache set-up populated and must execute no workload.
func campaign(cfg config, warm bool) (result, error) {
	var o outcome
	shared := filepath.Join(cfg.runDir, "runcache")

	// Set-up renders the reference stdout. The cold reference bypasses the
	// run cache entirely, so it cannot share a fault with the reps.
	t0 := time.Now()
	refCache := "off"
	if warm {
		refCache = shared
	}
	ref, err := runCubie(cfg, refCache, "all")
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	o.setup = append(o.setup, time.Since(t0).Seconds())

	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < cfg.seconds; i++ {
		cache := shared
		if !warm {
			cache = filepath.Join(cfg.runDir, fmt.Sprintf("cold-%d", i))
		}
		prom := filepath.Join(cfg.runDir, fmt.Sprintf("metrics-%d.prom", i))
		o.attempted++
		p, err := runCubie(cfg, cache, "all", "--metrics", prom)
		if err == nil {
			err = checkCampaign(p.stdout, ref.stdout, prom, cache, warm)
		}
		if !warm {
			os.RemoveAll(cache)
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %v\n", cfg.workload, i, err)
			continue
		}
		o.walls = append(o.walls, p.wall)
		o.cpus = append(o.cpus, p.cpu)
		o.rss = append(o.rss, p.rssMiB)
		o.latMS = append(o.latMS, p.wall*1000)
		o.busy += p.wall
	}
	fmt.Printf("%s: %d reps, wall %s s, cpu %s s\n", cfg.workload, len(o.walls), list(o.walls), list(o.cpus))
	return o.result()
}

// checkCampaign verifies one rep: stdout equal to the reference byte for
// byte, and run-cache counters that match the rep's kind. A cold rep must
// hit nothing and write one entry file per write it counts; a warm rep
// must execute nothing and miss nothing.
func checkCampaign(out, ref []byte, prom, cache string, warm bool) error {
	if !bytes.Equal(out, ref) {
		n := 0
		for n < len(out) && n < len(ref) && out[n] == ref[n] {
			n++
		}
		return fmt.Errorf("stdout differs from the reference at byte %d (%d vs %d bytes)", n, len(out), len(ref))
	}
	snap, err := os.ReadFile(prom)
	if err != nil {
		return err
	}
	want := map[string]float64{}
	if warm {
		want["cubie_harness_runs_started_total"] = 0
		want["cubie_runcache_misses_total"] = 0
	} else {
		files, err := filepath.Glob(filepath.Join(cache, "*.json"))
		if err != nil {
			return err
		}
		want["cubie_runcache_hits_total"] = 0
		want["cubie_runcache_writes_total"] = float64(len(files))
		started, err := counter(snap, "cubie_harness_runs_started_total")
		if err != nil {
			return err
		}
		if started == 0 {
			return fmt.Errorf("cold rep started no workload runs")
		}
	}
	for name, v := range want {
		got, err := counter(snap, name)
		if err != nil {
			return err
		}
		if got != v {
			return fmt.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	return nil
}

func list(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
