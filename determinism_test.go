package repro

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels/spgemm"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/workload"
)

// TestSuiteDeterminism is the suite-wide contract of the par engine: every
// workload's representative case, in every variant, must produce the
// bit-identical Output and the identical Profile whether the grid runs
// serially (one worker) or on a full pool. The engine only ever assigns
// whole output tiles to workers and merges reductions in fixed chunk order,
// so this holds exactly — not just to within round-off (Table 6's TC ≡ CC
// comparison depends on it).
func TestSuiteDeterminism(t *testing.T) {
	type outcome struct {
		res *workload.Result
		err error
	}
	runAll := func(workers int) map[string]outcome {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		out := map[string]outcome{}
		for _, w := range core.NewSuite().Workloads() {
			c := w.Representative()
			for _, v := range w.Variants() {
				res, err := w.Run(c, v)
				out[w.Name()+"/"+string(v)] = outcome{res, err}
			}
		}
		return out
	}

	serial := runAll(1)
	parallel := runAll(8)

	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for key, s := range serial {
		p, ok := parallel[key]
		if !ok {
			t.Errorf("%s: missing from parallel run", key)
			continue
		}
		if (s.err == nil) != (p.err == nil) {
			t.Errorf("%s: error mismatch: serial=%v parallel=%v", key, s.err, p.err)
			continue
		}
		if s.err != nil {
			continue
		}
		if len(s.res.Output) != len(p.res.Output) {
			t.Errorf("%s: output lengths differ: %d vs %d",
				key, len(s.res.Output), len(p.res.Output))
			continue
		}
		for i := range s.res.Output {
			if math.Float64bits(s.res.Output[i]) != math.Float64bits(p.res.Output[i]) {
				t.Errorf("%s: output[%d] differs bitwise: %v vs %v",
					key, i, s.res.Output[i], p.res.Output[i])
				break
			}
		}
		if !reflect.DeepEqual(s.res.Profile, p.res.Profile) {
			t.Errorf("%s: profiles differ:\nserial:   %+v\nparallel: %+v",
				key, s.res.Profile, p.res.Profile)
		}
		if s.res.Work != p.res.Work || s.res.MetricName != p.res.MetricName ||
			s.res.InputUtil != p.res.InputUtil || s.res.OutputUtil != p.res.OutputUtil {
			t.Errorf("%s: result metadata differs", key)
		}
	}
}

// TestSuitePanelDeterminism is the panel engine's suite-wide bit-identity
// contract: every workload's representative case, in every variant, must
// produce the bit-identical Output with the fused panel fast paths disabled
// (the CUBIE_NO_PANEL reference route of tile-at-a-time MMAs). The fused
// k-sweeps keep the exact ascending-k FMA chain per element, so this holds
// bitwise, not just to within round-off. The fused side runs twice on one
// suite: a cold pass that builds every case's packed operands and prestaged
// slabs, and a warm pass that reads what the cold pass built.
func TestSuitePanelDeterminism(t *testing.T) {
	runAll := func(s *core.Suite, panels bool) map[string][]float64 {
		was := mmu.SetPanelEnabled(panels)
		defer mmu.SetPanelEnabled(was)
		out := map[string][]float64{}
		for _, w := range s.Workloads() {
			c := w.Representative()
			for _, v := range w.Variants() {
				res, err := w.Run(c, v)
				if err != nil {
					t.Fatalf("%s/%s (panels=%v): %v", w.Name(), v, panels, err)
				}
				out[w.Name()+"/"+string(v)] = res.Output
			}
		}
		return out
	}

	suite := core.NewSuite()
	cold := runAll(suite, true)
	warm := runAll(suite, true)
	reference := runAll(core.NewSuite(), false)

	for name, fused := range map[string]map[string][]float64{"cold": cold, "warm": warm} {
		if len(fused) == 0 || len(fused) != len(reference) {
			t.Fatalf("%s: run counts differ or empty: %d vs %d", name, len(fused), len(reference))
		}
		for key, f := range fused {
			r := reference[key]
			if len(f) != len(r) {
				t.Errorf("%s %s: output lengths differ: %d vs %d", name, key, len(f), len(r))
				continue
			}
			for i := range f {
				if math.Float64bits(f[i]) != math.Float64bits(r[i]) {
					t.Errorf("%s %s: output[%d] differs bitwise: %v vs %v", name, key, i, f[i], r[i])
					break
				}
			}
		}
	}
}

// TestConcurrentTCRunsBitIdentical runs the representative TC case of every
// kernel that owns packed operands (GEMM, GEMV, SpGEMM, SpMV) from four
// goroutines at once on a fresh suite, so the goroutines race each case's
// first data build and its once-built operand panels. Every output must be
// bit-identical to a serial run. make race-step runs it under the race
// detector.
func TestConcurrentTCRunsBitIdentical(t *testing.T) {
	const goroutines = 4
	owners := map[string]bool{"GEMM": true, "GEMV": true, "SpGEMM": true, "SpMV": true}
	serial := map[string][]float64{}
	for _, w := range core.NewSuite().Workloads() {
		if !owners[w.Name()] {
			continue
		}
		res, err := w.Run(w.Representative(), workload.TC)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		serial[w.Name()] = res.Output
	}
	if len(serial) != len(owners) {
		t.Fatalf("found %d of the %d operand-owning workloads", len(serial), len(owners))
	}

	type outcome struct {
		name string
		out  []float64
		err  error
	}
	results := make(chan outcome, goroutines*len(owners))
	start := make(chan struct{}) // released at once so the first builds overlap
	var wg sync.WaitGroup
	for _, w := range core.NewSuite().Workloads() {
		if !owners[w.Name()] {
			continue
		}
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(w workload.Workload) {
				defer wg.Done()
				<-start
				res, err := w.Run(w.Representative(), workload.TC)
				o := outcome{name: w.Name(), err: err}
				if err == nil {
					o.out = res.Output
				}
				results <- o
			}(w)
		}
	}
	close(start)
	wg.Wait()
	close(results)
	for o := range results {
		if o.err != nil {
			t.Errorf("%s: %v", o.name, o.err)
			continue
		}
		want := serial[o.name]
		if len(o.out) != len(want) {
			t.Errorf("%s: output length %d, want %d", o.name, len(o.out), len(want))
			continue
		}
		for i := range want {
			if math.Float64bits(o.out[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: output[%d] differs bitwise: %v vs %v", o.name, i, o.out[i], want[i])
				break
			}
		}
	}
}

// TestSpGEMMAccumDeterminism is the SpGEMM accumulator-arena counterpart of
// the panel contract: with the dense stamped directory forced on
// (spgemm.SetAccumMode(spgemm.AccumDense)) and forced off (AccumHash),
// every SpGEMM variant must produce the bit-identical
// Output — the directory regime only routes tiles to arena slots, never
// changes the addition order.
func TestSpGEMMAccumDeterminism(t *testing.T) {
	runSpGEMM := func(mode spgemm.AccumMode) map[string][]float64 {
		prev := spgemm.SetAccumMode(mode)
		defer spgemm.SetAccumMode(prev)
		out := map[string][]float64{}
		for _, w := range core.NewSuite().Workloads() {
			if w.Name() != "SpGEMM" {
				continue
			}
			c := w.Representative()
			for _, v := range w.Variants() {
				res, err := w.Run(c, v)
				if err != nil {
					t.Fatalf("%s/%s (mode=%d): %v", w.Name(), v, mode, err)
				}
				out[w.Name()+"/"+string(v)] = res.Output
			}
		}
		return out
	}

	dense := runSpGEMM(spgemm.AccumDense)
	hash := runSpGEMM(spgemm.AccumHash)

	if len(dense) == 0 || len(dense) != len(hash) {
		t.Fatalf("run counts differ or empty: %d vs %d", len(dense), len(hash))
	}
	for key, d := range dense {
		h := hash[key]
		if len(d) != len(h) {
			t.Errorf("%s: output lengths differ: %d vs %d", key, len(d), len(h))
			continue
		}
		for i := range d {
			if math.Float64bits(d[i]) != math.Float64bits(h[i]) {
				t.Errorf("%s: output[%d] differs bitwise: %v vs %v", key, i, d[i], h[i])
				break
			}
		}
	}
}
