package main

// The traced decomposition behind --trace 1. One pass calls each layer's
// public functions in turn, serially and in-process, and records one span
// per call from this file; nothing inside the program is instrumented for
// it. The parent runs the pass twice in fresh processes (the dataset,
// pack and slab caches are process-wide): once with spans off and once
// with spans and the program's own host tracing on. The difference in
// their wall time is the tracing overhead, and the work counts of the two
// passes must agree exactly.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
}

// recorder keeps spans in memory until the pass ends. The pass is serial,
// so the open spans form a stack. A recorder that is off only calls.
type recorder struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func (r *recorder) do(name string, fn func() error) error {
	if !r.on {
		return fn()
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Start: time.Since(r.t0).Seconds(), Run: r.run})
	r.open = append(r.open, i)
	err := fn()
	r.spans[i].End = time.Since(r.t0).Seconds()
	r.open = r.open[:len(r.open)-1]
	return err
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. Children of a serial pass never overlap.
func (r *recorder) selfTimes() map[string]float64 {
	covered := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Name] += s.End - s.Start - covered[s.ID]
	}
	return self
}

// passReport is what one decomposition pass prints.
type passReport struct {
	TotalS    float64            `json:"total_s"`
	Counts    map[string]float64 `json:"counts"` // exact work counts, equal in every pass
	Digest    string             `json:"digest"` // SHA-256 of every rendered figure
	Metrics   map[string]metric  `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
}

// layers runs the off and on passes and reports the per-layer metrics.
func layers(cfg config) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var reps [2]passReport
	for i, mode := range []string{"off", "on"} {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		cmd := exec.CommandContext(ctx, self, "--layers-pass", mode,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--work", cfg.work)
		cmd.Dir = cfg.runDir
		cmd.Env = childEnv(cfg.runDir, "off")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return result{}, fmt.Errorf("decomposition pass %s: %w", mode, err)
		}
		if err := json.Unmarshal(out, &reps[i]); err != nil {
			return result{}, fmt.Errorf("decomposition pass %s: %w", mode, err)
		}
		for _, p := range reps[i].Problems {
			fmt.Fprintf(os.Stderr, "perfbench: pass %s: %s\n", mode, p)
		}
	}
	off, on := reps[0], reps[1]
	res := result{
		Attempted: off.Attempted + on.Attempted,
		Failed:    off.Failed + on.Failed,
		Metrics:   on.Metrics,
	}
	same := off.Digest == on.Digest && len(off.Counts) == len(on.Counts)
	for k, v := range on.Counts {
		if off.Counts[k] != v {
			same = false
			fmt.Fprintf(os.Stderr, "perfbench: count %s differs between passes: %v vs %v\n", k, off.Counts[k], v)
		}
	}
	if off.Digest != on.Digest {
		fmt.Fprintln(os.Stderr, "perfbench: rendered figures differ between passes")
	}
	res.Correct = res.Failed == 0 && same
	res.Metrics["trace.overhead_pct"] = metric{(on.TotalS - off.TotalS) / off.TotalS * 100, "%"}
	fmt.Printf("layers: pass off %.3f s, pass on %.3f s, counts identical: %v\n", off.TotalS, on.TotalS, same)
	return res, nil
}

// layersPass runs one decomposition pass in this process and prints its
// report. With mode "on" it also writes the spans to the work directory.
func layersPass(mode string, seed int64, work string) int {
	if mode != "on" && mode != "off" {
		return 2
	}
	dir, err := os.MkdirTemp(".", "layers-"+mode+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	d := &decomp{
		rec:     &recorder{on: mode == "on", run: fmt.Sprintf("%s-seed%d", mode, seed), t0: time.Now()},
		dir:     dir,
		seed:    seed,
		counts:  map[string]float64{},
		metrics: map[string]metric{},
		renders: map[string][]byte{},
		digest:  sha256.New(),
	}
	if d.rec.on {
		trace.StartHost()
	}
	t0 := time.Now()
	d.synthAndLayout()
	d.kernels()
	d.parallel()
	d.runCache()
	d.harness()
	d.store()
	d.http()
	total := time.Since(t0).Seconds()
	if d.rec.on {
		trace.StopHost()
	}

	self := d.rec.selfTimes()
	for _, name := range d.timed {
		d.metrics[name+"_s"] = metric{self[name], "s"}
	}
	for k, v := range d.counts {
		d.metrics[k] = metric{v, countUnits[k]}
	}
	if d.rec.on {
		spans, err := json.Marshal(d.rec.spans)
		if err == nil {
			err = os.WriteFile(filepath.Join(work, "spans-"+d.rec.run+".json"), spans, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	out, err := json.Marshal(passReport{
		TotalS: total, Counts: d.counts, Digest: hex.EncodeToString(d.digest.Sum(nil)),
		Metrics: d.metrics, Attempted: d.attempted, Failed: d.failed, Problems: d.problems,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

// countUnits labels the exact counts. Bytes are computed from the sizes of
// the arrays each kernel traverses, not measured on a device.
var countUnits = map[string]string{
	"mmu.dmma_tiles":      "count",
	"mmu.bmma_ops":        "count",
	"mmu.panels":          "count",
	"kernel.tensor_gflop": "GFLOP",
	"kernel.vector_gflop": "GFLOP",
	"kernel.bit_gop":      "Gop",
	"kernel.computed_gb":  "GB_computed",
	"kernel.runs":         "count",
	"runcache.entries":    "count",
}

// decomp is one pass's state.
type decomp struct {
	rec     *recorder
	dir     string
	seed    int64
	timed   []string           // span names reported as <name>_s, in order
	counts  map[string]float64 // exact counts, compared between passes
	metrics map[string]metric  // everything else
	renders map[string][]byte
	digest  hash.Hash // over every rendered figure

	results []keyedResult
	refs    []keyedFloats
	st      *runcache.Cache // the store the http step serves

	attempted, failed int
	problems          []string
}

type keyedResult struct {
	k   harness.RunKey
	res *workload.Result
}

type keyedFloats struct {
	k   harness.RunKey
	out []float64
}

// call runs fn under a span and counts it as one operation.
func (d *decomp) call(name string, fn func() error) bool {
	return d.check(name, d.rec.do(name, fn))
}

// check counts a set-up step that is not itself measured as one
// operation, failed when err is not nil, and reports whether it succeeded.
func (d *decomp) check(name string, err error) bool {
	d.attempted++
	if err != nil {
		d.failed++
		d.problems = append(d.problems, name+": "+err.Error())
		return false
	}
	return true
}

// report names the spans whose summed self time is a metric.
func (d *decomp) report(names ...string) { d.timed = append(d.timed, names...) }

// synthAndLayout synthesizes every Table 3/4 dataset and builds each
// layout the kernels use from it.
func (d *decomp) synthAndLayout() {
	d.report("synth.matrix", "synth.graph", "layout.dasp", "layout.mbsr", "layout.sliceset")
	var mats []*sparse.CSR
	var graphs []*graph.Graph
	for _, ds := range sparse.Table4() {
		d.call("synth.matrix", func() error {
			m, err := sparse.Synthesize(ds.Name)
			if err == nil {
				mats = append(mats, m)
			}
			return err
		})
	}
	for _, ds := range graph.Table3() {
		d.call("synth.graph", func() error {
			g, err := graph.Synthesize(ds.Name)
			if err == nil {
				graphs = append(graphs, g)
			}
			return err
		})
	}
	d.metrics["synth.datasets"] = metric{float64(len(mats) + len(graphs)), "count"}
	for _, m := range mats {
		d.call("layout.dasp", func() error { sparse.ToDASP(m); return nil })
		d.call("layout.mbsr", func() error { sparse.ToMBSR(m); return nil })
	}
	for _, g := range graphs {
		d.call("layout.sliceset", func() error { graph.ToSliceSet(g); return nil })
	}
	// The kernels read the process-wide dataset caches; filling them here
	// keeps synthesis out of the kernel spans.
	for _, ds := range sparse.Table4() {
		d.call("synth.shared", func() error { _, err := sparse.SynthesizeShared(ds.Name); return err })
	}
	for _, ds := range graph.Table3() {
		d.call("synth.shared", func() error { _, err := graph.SynthesizeShared(ds.Name); return err })
	}
}

// mmuCount reads one of the MMA layer's counters from the registry.
func mmuCount(name string) float64 {
	return float64(metrics.Default().ShardedCounter(name, "").Value())
}

// kernels executes every key of the whole-campaign plan once, serially,
// straight through Workload.Run and Workload.Reference.
func (d *decomp) kernels() {
	h := harness.New()
	d.report("kernel.reference")
	for _, w := range h.Suite.Workloads() {
		d.report("kernel." + w.Name())
	}
	mmu := map[string]string{
		"mmu.dmma_tiles": "cubie_mmu_dmma_tiles_total",
		"mmu.bmma_ops":   "cubie_mmu_bmma_ops_total",
		"mmu.panels":     "cubie_mmu_dmma_panels_total",
	}
	for k, series := range mmu {
		d.counts[k] = -mmuCount(series)
	}
	var prof struct{ tensor, vector, bit, bytes float64 }
	seen := map[harness.RunKey]bool{}
	for _, k := range h.PlanAll() {
		if seen[k] {
			continue
		}
		seen[k] = true
		w, err := h.Suite.ByName(k.Workload)
		if err != nil {
			d.check("kernel.resolve", err)
			continue
		}
		c, err := workload.FindCase(w, k.Case)
		if err != nil {
			d.check("kernel.resolve", err)
			continue
		}
		if k.Variant == harness.RefVariant {
			d.call("kernel.reference", func() error {
				out, err := w.Reference(c)
				if err == nil {
					d.refs = append(d.refs, keyedFloats{k, out})
				}
				return err
			})
			continue
		}
		d.call("kernel."+k.Workload, func() error {
			res, err := w.Run(c, k.Variant)
			if err != nil {
				return err
			}
			p := res.Profile
			prof.tensor += p.TensorFLOPs
			prof.vector += p.VectorFLOPs
			prof.bit += p.BitOps
			prof.bytes += p.DRAMBytes + p.L2Bytes + p.L1Bytes + p.ConstBytes
			// Like the harness, keep outputs only for the representative
			// case: nothing else reads them, and the full grid's run to
			// hundreds of megabytes.
			if c.Name != w.Representative().Name {
				trimmed := *res
				trimmed.Output = nil
				res = &trimmed
			}
			d.results = append(d.results, keyedResult{k, res})
			return nil
		})
	}
	for k, series := range mmu {
		d.counts[k] += mmuCount(series)
	}
	d.counts["kernel.runs"] = float64(len(seen))
	d.counts["kernel.tensor_gflop"] = prof.tensor / 1e9
	d.counts["kernel.vector_gflop"] = prof.vector / 1e9
	d.counts["kernel.bit_gop"] = prof.bit / 1e9
	d.counts["kernel.computed_gb"] = prof.bytes / 1e9
}

// parallel times each workload's representative TC run with the default
// par worker count and with one worker, alternating the two, and reports
// the ratio of their median times. A warm-up run first refills whatever
// caches the kernel pass evicted. Representative runs take milliseconds, so
// each side runs at least three times and until the one-worker side has
// run parSample seconds.
func (d *decomp) parallel() {
	const parSample = 0.15
	for _, w := range core.NewSuite().Workloads() {
		c := w.Representative()
		timeRun := func(name string) float64 {
			var s float64
			d.call(name, func() error {
				t0 := time.Now()
				_, err := w.Run(c, workload.TC)
				s = time.Since(t0).Seconds()
				return err
			})
			return s
		}
		timeRun("par.warmup." + w.Name())
		var def, one []float64
		var spent float64
		for len(def) < 3 || spent < parSample {
			def = append(def, timeRun("par.default."+w.Name()))
			prev := par.SetWorkers(1)
			one = append(one, timeRun("par.serial."+w.Name()))
			par.SetWorkers(prev)
			spent += one[len(one)-1]
		}
		d.metrics["par.speedup."+w.Name()] = metric{median(one) / median(def), "x"}
	}
}

// runCache writes every kernel result and reference into a fresh run
// cache, then reads each back and compares it with what was written.
func (d *decomp) runCache() {
	d.report("runcache.put", "runcache.get")
	rc, err := runcache.Open(filepath.Join(d.dir, "runcache"))
	if !d.check("runcache.open", err) {
		return
	}
	refKey := func(k harness.RunKey) string {
		return runcache.ResultKey(k.Workload, k.Case, string(harness.RefVariant))
	}
	for _, r := range d.results {
		d.call("runcache.put", func() error {
			rc.PutResult(r.k.Workload, r.k.Case, string(r.k.Variant), r.res)
			return nil
		})
	}
	for _, r := range d.refs {
		d.call("runcache.put", func() error {
			rc.PutFloats(runcache.KindReference, refKey(r.k), r.out)
			return nil
		})
	}
	for _, r := range d.results {
		d.call("runcache.get", func() error {
			got, ok := rc.GetResult(r.k.Workload, r.k.Case, string(r.k.Variant))
			if !ok {
				return fmt.Errorf("%s: miss after put", r.k)
			}
			if got.Profile != r.res.Profile || got.Work != r.res.Work || !sameFloats(got.Output, r.res.Output) {
				return fmt.Errorf("%s: read back a different result", r.k)
			}
			return nil
		})
	}
	for _, r := range d.refs {
		d.call("runcache.get", func() error {
			got, ok := rc.GetFloats(runcache.KindReference, refKey(r.k))
			if !ok || !sameFloats(got, r.out) {
				return fmt.Errorf("%s: reference not read back intact", r.k)
			}
			return nil
		})
	}
	n, size, err := dirSize(rc.Dir())
	d.check("runcache.size", err)
	d.counts["runcache.entries"] = float64(n)
	d.metrics["runcache.entry_mb"] = metric{float64(size) / 1e6, "MB"}
}

// harness executes the whole-campaign plan through the harness scheduler
// over a fresh run cache, then renders every `cubie all` figure from it.
func (d *decomp) harness() {
	d.report("harness.execute")
	rc, err := runcache.Open(filepath.Join(d.dir, "harness-cache"))
	if !d.check("harness.open", err) {
		return
	}
	h := harness.New().AttachCache(rc)
	d.call("harness.execute", func() error { return h.Execute(h.PlanAll()) })
	for _, f := range harness.Catalog() {
		if !f.InAll {
			continue
		}
		d.report("render." + f.Name)
		var buf bytes.Buffer
		d.call("render."+f.Name, func() error { return h.RenderFigure(&buf, f.Name) })
		d.renders[f.Name] = buf.Bytes()
		d.digest.Write(buf.Bytes())
	}
	d.st = rc
}

// store copies every entry the harness wrote into a fresh store through
// the daemon's store functions, then reads each back.
func (d *decomp) store() {
	d.report("store.write", "store.read")
	if d.st == nil {
		return
	}
	names, err := filepath.Glob(filepath.Join(d.st.Dir(), "*.json"))
	if !d.check("store.list", err) {
		return
	}
	st, err := runcache.Open(filepath.Join(d.dir, "store"))
	if !d.check("store.open", err) {
		return
	}
	data := make([][]byte, len(names))
	for i, path := range names {
		names[i] = filepath.Base(path)
		if data[i], err = os.ReadFile(path); err != nil {
			d.check("store.load", err)
		}
	}
	for i, name := range names {
		d.call("store.write", func() error { return st.WriteEntry(name, data[i]) })
	}
	for i, name := range names {
		d.call("store.read", func() error {
			got, err := st.ReadEntry(name)
			if err == nil && !bytes.Equal(got, data[i]) {
				err = fmt.Errorf("%s: read back different bytes", name)
			}
			return err
		})
	}
	d.st = st
}

// http serves the store from an in-process daemon and sends it one rep of
// the serve-mixed request mix from a single client, after a warm-up pass.
func (d *decomp) http() {
	if d.st == nil {
		return
	}
	h := harness.New().AttachCache(d.st)
	cfg := server.Defaults()
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(h, cfg)
	if !d.check("http.start", err) {
		return
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if !d.check("http.listen", err) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			d.check("http.stop", err)
		}
	}()

	t := newTarget(ln.Addr().String())
	keys, err := h.PlanByName("figure9")
	if !d.check("http.plan", err) {
		return
	}
	for _, k := range keys {
		name := runcache.EntryName(runcache.Fingerprint(), runcache.KindResult,
			runcache.ResultKey(k.Workload, k.Case, string(k.Variant)))
		data, err := d.st.ReadEntry(name)
		if !d.check("http.entry", err) {
			return
		}
		t.names = append(t.names, name)
		t.entries = append(t.entries, data)
	}
	for _, f := range servedFigures {
		t.figures = append(t.figures, f.name)
		t.figRef = append(t.figRef, d.renders[f.name])
	}
	if t.runs, err = figure9Runs(); !d.check("http.runs", err) {
		return
	}
	if !d.call("http.warmup", t.warmUp) {
		return
	}
	lat := map[opKind][]float64{}
	var buf bytes.Buffer
	for _, o := range repMix(rand.New(rand.NewSource(d.seed)), t) {
		d.call("http."+opNames[o.kind], func() error {
			dur, err := t.do(o, &buf)
			lat[o.kind] = append(lat[o.kind], float64(dur.Nanoseconds())/1e6)
			return err
		})
	}
	for k := opGet; k <= opRun; k++ {
		if len(lat[k]) > 0 {
			d.metrics["http."+opNames[k]+".p50_ms"] = metric{quantile(lat[k], 0.5), "ms"}
			d.metrics["http."+opNames[k]+".p99_ms"] = metric{quantile(lat[k], 0.99), "ms"}
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dirSize returns the number of entry files in dir and their total size.
func dirSize(dir string) (int, int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, 0, err
		}
		size += fi.Size()
	}
	return len(files), size, nil
}
