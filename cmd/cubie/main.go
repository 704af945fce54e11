// Command cubie runs the Cubie benchmark suite and regenerates the paper's
// figures and tables as text.
//
// Usage:
//
//	cubie <command> [flags]
//
// Commands:
//
//	suite      list the ten workloads, their cases and variants (Table 2)
//	specs      print the simulated GPU specifications (Table 5)
//	quadrants  print the four-quadrant utilization categorization (Figure 2)
//	dwarfs     print the Berkeley-dwarf coverage comparison (Table 7)
//	observe    print the nine key observations with Table 1's mapping
//	datasets   print the Table 3 graphs and Table 4 matrices
//	peaks      print the peak-throughput evolution (Figure 12)
//	perf       run the full performance grid (Figure 3)
//	speedup    print variant speedups (Figures 4, 5, 6)
//	edp        print the energy-delay products (Figure 7)
//	power      print the power-trace summaries (Figure 8)
//	error      print the FP64 accuracy table (Table 6)
//	roofline   print the cache-aware roofline (Figure 9)
//	coverage   run the PCA coverage analyses (Figures 10, 11)
//	ablate     run the ablation studies of the model's design choices
//	advise     predict MMU suitability from algorithm-level traits (§4)
//	whatif     the §11 counterfactual: Blackwell with FP64 scaling preserved
//	sweep      bandwidth / tensor-peak provisioning sweeps with knees
//	trace      write a Chrome-trace timeline of the measurement campaign
//	selfbench  time this repo's own compute paths (§6 methodology)
//	explain    resource-level breakdown of one workload/case/variant
//	run        execute workloads through the instrumented harness path
//	serve      long-lived characterization daemon with an HTTP/JSON API
//	fetch      fetch a figure from a running daemon (serve's thin client)
//	dist       coordinate a plan across forked work-stealing workers
//	work       worker loop: lease keys from a coordinator and execute them
//	all        run everything above in paper order (--workers N distributes)
//
// Every command additionally accepts the observability flags --metrics,
// --trace-host, and --pprof (see docs/OBSERVABILITY.md). Flags come before
// positional arguments: cubie run --metrics - SpMV.
//
// Completed workload runs persist in the CUBIE_CACHE-controlled run cache
// (see docs/PERFORMANCE.md, "Incremental runs & the scheduler"): a warm
// `cubie all` re-renders every figure without executing a single workload.
// CUBIE_CACHE=off disables it; any other value selects the cache directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cubie"
	"repro/internal/advisor"
	"repro/internal/harness"
	"repro/internal/measure"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	gpu := fs.String("gpu", "H200", "GPU to simulate for single-device experiments (A100, H200, B200)")
	of := fs.String("of", "tc-vs-baseline", "speedup pair: tc-vs-baseline, cc-vs-tc, cce-vs-tc")
	corpus := fs.Int("corpus", 499, "corpus size for the coverage analysis")
	format := fs.String("format", "text", "output format for perf and error: text, csv, json")
	metricsOut := fs.String("metrics", "", "write a metrics snapshot after the command: Prometheus text, or JSON for *.json paths (\"-\" = stdout)")
	traceHost := fs.String("trace-host", "", "record real host execution spans and write Chrome-trace JSON (\"-\" = stdout)")
	pprofOut := fs.String("pprof", "", "write a CPU profile of the command (inspect with go tool pprof)")
	addr := fs.String("addr", server.Defaults().Addr, "serve: listen address (host:port, port 0 picks a free one); fetch: daemon address")
	addrFile := fs.String("addr-file", "", "serve: write the bound listen address to this file once ready")
	configPath := fs.String("config", "", "serve: JSON config file (overridden by CUBIE_* env vars and flags; see docs/SERVE.md)")
	maxInflight := fs.Int("max-inflight", server.Defaults().MaxInflightRuns, "serve: bound on concurrently admitted run-executing requests")
	coordinator := fs.String("coordinator", os.Getenv("CUBIE_COORDINATOR"), "work: coordinator base URL (default $CUBIE_COORDINATOR)")
	workerID := fs.String("worker-id", "", "work: worker identity reported to the coordinator (default hostname-pid)")
	plan := fs.String("plan", "all", "dist: named run plan to distribute (all, figure3, power, table6, figure9, representative, sweep)")
	figure := fs.String("figure", "", "dist: figure to render from the warmed cache once the plan completes")
	workers := fs.Int("workers", 0, "dist (or all): number of forked workers; 0 runs all in-process")
	leaseTimeout := fs.Duration("lease-timeout", envLeaseTimeout(), "dist: how long a worker may hold a leased key before it is re-issued (default $CUBIE_LEASE_TIMEOUT)")
	workerMetrics := fs.String("worker-metrics", "", "dist: directory for per-worker Prometheus metric snapshots (w1.prom, ...)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	// A worker defaults its remote cache tier to the coordinator's store,
	// so results it executes are published where the coordinator (and
	// every peer worker) can reuse them. Set before the harness is built —
	// FromEnv reads it.
	if cmd == "work" && *coordinator != "" && os.Getenv(runcache.EnvRemote) == "" {
		os.Setenv(runcache.EnvRemote, *coordinator)
	}

	spec, err := cubie.DeviceByName(*gpu)
	if err != nil {
		fatal(err)
	}

	obs, err := startObservability(*pprofOut, *traceHost, *metricsOut)
	if err != nil {
		fatal(err)
	}

	// Workload results are deterministic, so completed runs persist across
	// invocations (CUBIE_CACHE selects the directory, "off" disables): a
	// warm `cubie all` re-renders every figure without executing a single
	// workload run.
	h := cubie.NewHarness().AttachCache(runcache.FromEnv())
	switch cmd {
	case "suite":
		mustRender(h, "suite")
	case "specs":
		mustRender(h, "specs")
	case "quadrants":
		mustRender(h, "quadrants")
	case "dwarfs":
		mustRender(h, "dwarfs")
	case "observe":
		mustRender(h, "observe")
	case "datasets":
		mustRender(h, "datasets")
	case "peaks":
		cubie.RenderFigure12(os.Stdout)
	case "perf":
		cells, err := h.Figure3(cubie.Devices())
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "csv":
			err = harness.WritePerfCSV(os.Stdout, cells)
		case "json":
			err = harness.WriteJSON(os.Stdout, cells)
		default:
			cubie.RenderFigure3(os.Stdout, cells)
		}
		if err != nil {
			fatal(err)
		}
	case "speedup":
		cmdSpeedup(h, *of)
	case "edp":
		rows, geo, err := h.Figure7(spec)
		if err != nil {
			fatal(err)
		}
		cubie.RenderFigure7(os.Stdout, rows, geo)
	case "power":
		traces, err := h.Figure8(spec)
		if err != nil {
			fatal(err)
		}
		cubie.RenderFigure8(os.Stdout, traces)
	case "error":
		rows, err := h.Table6()
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "csv": // the artifact's all_error.csv layout
			err = harness.WriteTable6CSV(os.Stdout, rows)
		case "json":
			err = harness.WriteJSON(os.Stdout, rows)
		default:
			cubie.RenderTable6(os.Stdout, rows)
		}
		if err != nil {
			fatal(err)
		}
	case "roofline":
		m, pts, err := h.Figure9(spec)
		if err != nil {
			fatal(err)
		}
		cubie.RenderFigure9(os.Stdout, m, pts)
	case "coverage":
		cmdCoverage(h, *corpus, spec)
	case "ablate":
		cmdAblate(h, spec)
	case "advise":
		cmdAdvise(spec)
	case "trace":
		tl := trace.NewTimeline()
		for _, w := range h.Suite.Workloads() {
			for _, v := range w.Variants() {
				res, err := w.Run(w.Representative(), v)
				if err != nil {
					fatal(err)
				}
				tl.AddKernelLoop(spec, w.Name(), string(v),
					cubie.Simulate(spec, res.Profile), w.Repeats())
			}
		}
		if err := tl.Write(os.Stdout); err != nil {
			fatal(err)
		}
	case "selfbench":
		fmt.Println("Timing this repo's own compute paths (2 warmups, 5 timed runs,")
		fmt.Println("the paper's §6 methodology at reduced counts). These are Go")
		fmt.Println("execution times of the functional MMA layer, NOT simulated GPU times.")
		fmt.Println()
		for _, w := range h.Suite.Workloads() {
			w := w
			c := w.Representative()
			stats, err := measure.Run(func() {
				if _, err := w.Run(c, cubie.TC); err != nil {
					fatal(err)
				}
			}, 2, 5)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-10s %s\n", w.Name(), stats)
		}
	case "sweep":
		if err := h.RenderSweepSection(os.Stdout, spec); err != nil {
			fatal(err)
		}
	case "whatif":
		mustRender(h, "whatif")
	case "explain":
		args := fs.Args()
		if len(args) < 1 {
			fatal(fmt.Errorf("usage: cubie explain <workload> [case] [variant] [--gpu ...]"))
		}
		caseName := ""
		variant := cubie.TC
		if len(args) > 1 {
			caseName = args[1]
		}
		if len(args) > 2 {
			variant = cubie.Variant(args[2])
		}
		if err := h.Explain(os.Stdout, args[0], caseName, variant, spec); err != nil {
			fatal(err)
		}
	case "run":
		cmdRun(h, fs.Args(), spec)
	case "serve":
		cmdServe(h, serveFlags{
			addr:        *addr,
			addrFile:    *addrFile,
			configPath:  *configPath,
			maxInflight: *maxInflight,
			set:         flagsSet(fs),
		})
	case "fetch":
		cmdFetch(*addr, fs.Args())
	case "work":
		cmdWork(h, *coordinator, *workerID)
	case "dist":
		cmdDist(h, distFlags{
			plan:          *plan,
			figure:        *figure,
			workers:       max(*workers, 1),
			leaseTimeout:  *leaseTimeout,
			workerMetrics: *workerMetrics,
		})
	case "all":
		if *workers > 0 {
			cmdDist(h, distFlags{
				plan:          "all",
				workers:       *workers,
				leaseTimeout:  *leaseTimeout,
				workerMetrics: *workerMetrics,
			})
			break
		}
		if err := h.RenderAll(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err := obs.finish(); err != nil {
		fatal(err)
	}
}

// mustRender renders one figure-catalog entry to stdout (see
// internal/harness/catalog.go — the same renderers back the `cubie serve`
// HTTP API, so CLI and daemon output are identical by construction).
func mustRender(h *cubie.Harness, name string) {
	if err := h.RenderFigure(os.Stdout, name); err != nil {
		fatal(err)
	}
}

func cmdSpeedup(h *cubie.Harness, of string) {
	if err := h.RenderSpeedupPair(os.Stdout, of); err != nil {
		fatal(err)
	}
}

func cmdCoverage(h *cubie.Harness, corpus int, spec cubie.Device) {
	if err := h.RenderCoverageSection(os.Stdout, corpus, spec); err != nil {
		fatal(err)
	}
}

func cmdAblate(h *cubie.Harness, spec cubie.Device) {
	if err := h.RenderAblationSection(os.Stdout, spec); err != nil {
		fatal(err)
	}
}

func cmdAdvise(spec cubie.Device) {
	fmt.Printf("Algorithm-level MMU suitability predictions on %s (Section 4's\n", spec.Name)
	fmt.Println("\"first step toward algorithm level reasoning\", made mechanical)")
	fmt.Printf("\n%-10s %5s %9s %14s %8s\n", "kernel", "quad", "suitable", "speedup band", "redund.")
	for _, tr := range advisor.KnownTraits() {
		v := advisor.Advise(tr, spec)
		fmt.Printf("%-10s %5d %9v %6.2f - %5.2fx %7.1fx\n",
			tr.Name, v.Quadrant, v.Suitable,
			v.ExpectedSpeedupLow, v.ExpectedSpeedupHigh, v.RedundancyFactor)
		for _, r := range v.Reasons {
			fmt.Printf("             - %s\n", r)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cubie <command> [flags]

commands:
  suite | specs | quadrants | dwarfs | observe | datasets | peaks
  perf | speedup [--of tc-vs-baseline|cc-vs-tc|cce-vs-tc]
  edp | power | error | roofline [--gpu A100|H200|B200]
  coverage [--corpus N] | ablate | advise | whatif | sweep | trace | selfbench
  explain <workload> [case] [variant]
  run [<workload> [case] [variant]]
  serve [--addr host:port] [--config file] [--addr-file file] [--max-inflight N]
  fetch [figure] [--addr host:port]
  dist [--plan name] [--workers N] [--figure name] [--lease-timeout d]
       [--worker-metrics dir]
  work --coordinator URL [--worker-id id]
  all [--workers N]

observability flags (any command; flags precede positional args):
  --metrics <file|->     metrics snapshot after the command (Prometheus
                         text; *.json path writes JSON)
  --trace-host <file|->  Chrome-trace JSON of real host execution spans
  --pprof <file>         CPU profile labeled by workload/variant/phase

environment:
  CUBIE_CACHE=<dir|off>  persistent run cache (default: the user cache
                         dir); deterministic results are reused across
                         invocations — a warm "cubie all" executes zero
                         workload runs
  CUBIE_REMOTE_CACHE=<url>  remote cache tier: a peer daemon's store,
                         consulted on local misses, published on puts
  CUBIE_COORDINATOR=<url>   default --coordinator for "cubie work"
  CUBIE_LEASE_TIMEOUT=<dur> default --lease-timeout for "cubie dist"`)
}

// envLeaseTimeout reads CUBIE_LEASE_TIMEOUT (a Go duration like "2m") as
// the --lease-timeout default.
func envLeaseTimeout() time.Duration {
	if v := os.Getenv("CUBIE_LEASE_TIMEOUT"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return harness.DefaultLeaseTimeout
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cubie:", err)
	os.Exit(1)
}
