package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server/api"
)

// Closed-loop shape of serve-mixed: two clients (the VM's core count), each
// sending its next request only when the previous one has completed.
const clients = 2

// One rep sends every cache entry getsPerEntry GETs and putsPerEntry PUTs,
// every figure figsPerRep GETs and every run one POST, in an order drawn
// from the seed. A fixed composition keeps the seed from changing how many
// large entries a rep writes. With the 31 entries of the figure9 plan a rep
// is 647 requests: 67% GETs, one in ten a PUT, the rest figures and runs.
// The entries come in size classes (8 of 44 KB, 8 of 320 KB, then 0.7 to
// 11 MB), so GET latencies cluster by class; figsPerRep places the median
// request in the middle of the 320 KB class instead of at a class edge,
// where the median would jump between classes from run to run.
const (
	getsPerEntry = 14
	putsPerEntry = 2
	figsPerRep   = 30
)

// servedFigures are the figures the mix fetches, with the CLI command
// whose stdout is each one's reference. figure9's runs are exactly the
// entries the store is populated with; the others render without runs.
var servedFigures = []struct{ name, cmd string }{
	{"figure9", "roofline"},
	{"specs", "specs"},
	{"quadrants", "quadrants"},
	{"dwarfs", "dwarfs"},
}

// opKind is one kind of request in the mix.
type opKind int

const (
	opGet opKind = iota
	opPut
	opFigure
	opRun
)

var opNames = [...]string{"cache_get", "cache_put", "figure", "run"}

// op is one request: a kind and the index of its entry, figure or run.
type op struct {
	kind opKind
	i    int
}

// repMix returns one rep's requests, shuffled by rng.
func repMix(rng *rand.Rand, t *target) []op {
	var ops []op
	add := func(k opKind, n, times int) {
		for i := 0; i < n; i++ {
			for j := 0; j < times; j++ {
				ops = append(ops, op{k, i})
			}
		}
	}
	add(opGet, len(t.names), getsPerEntry)
	add(opPut, len(t.names), putsPerEntry)
	add(opFigure, len(t.figures), figsPerRep)
	add(opRun, len(t.runs), 1)
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// target is a serving daemon and everything needed to check its answers.
type target struct {
	base    string
	client  *http.Client
	names   []string // cache entry names
	entries [][]byte // their exact bytes
	figures []string
	figRef  [][]byte
	runs    [][]byte // POST /api/v1/runs bodies
	runRef  [][]byte // expected responses, recorded by warmUp
}

func newTarget(addr string) *target {
	return &target{
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
}

// figure9Runs returns the run requests of the figure9 plan: every variant
// of every floating-point workload on its representative case.
func figure9Runs() ([][]byte, error) {
	var runs [][]byte
	for _, w := range core.NewSuite().Workloads() {
		if w.Name() == "BFS" {
			continue
		}
		for _, v := range w.Variants() {
			body, err := json.Marshal(api.RunRequest{Workload: w.Name(), Case: w.Representative().Name, Variant: string(v)})
			if err != nil {
				return nil, err
			}
			runs = append(runs, body)
		}
	}
	return runs, nil
}

// loadEntries reads every entry file of a store directory.
func (t *target) loadEntries(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		t.names = append(t.names, filepath.Base(f))
		t.entries = append(t.entries, data)
	}
	if len(files) == 0 {
		return fmt.Errorf("store %s holds no entries", dir)
	}
	return nil
}

// do sends one request and checks the answer, reading the response into
// buf, which each client reuses so that large entries do not churn the
// benchmark's own heap. The latency runs from sending the request to
// reading the last byte of the response.
func (t *target) do(o op, buf *bytes.Buffer) (time.Duration, error) {
	var req *http.Request
	var err error
	switch o.kind {
	case opGet:
		req, err = http.NewRequest(http.MethodGet, t.base+"/api/v1/cache/"+t.names[o.i], nil)
	case opPut:
		req, err = http.NewRequest(http.MethodPut, t.base+"/api/v1/cache/"+t.names[o.i], bytes.NewReader(t.entries[o.i]))
	case opFigure:
		req, err = http.NewRequest(http.MethodGet, t.base+"/api/v1/figures/"+t.figures[o.i], nil)
	case opRun:
		req, err = http.NewRequest(http.MethodPost, t.base+"/api/v1/runs", bytes.NewReader(t.runs[o.i]))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	body := buf.Bytes()
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, tail(body))
	}
	var want []byte
	switch o.kind {
	case opGet:
		want = t.entries[o.i]
	case opFigure:
		want = t.figRef[o.i]
	case opRun:
		want = t.runRef[o.i]
	}
	if want != nil && !bytes.Equal(body, want) {
		return 0, fmt.Errorf("%s %s: body differs from the reference (%d vs %d bytes)", req.Method, req.URL.Path, len(body), len(want))
	}
	return d, nil
}

// warmUp sends every distinct request once, serially, so first figure
// renders and first run loads stay out of the measured reps. It records
// each run's answer, once it names the run asked for, as the reference
// later answers must match.
func (t *target) warmUp() error {
	t.runRef = make([][]byte, len(t.runs))
	var buf bytes.Buffer
	for i := range t.names {
		if _, err := t.do(op{opGet, i}, &buf); err != nil {
			return err
		}
	}
	if _, err := t.do(op{opPut, 0}, &buf); err != nil {
		return err
	}
	for i := range t.figures {
		if _, err := t.do(op{opFigure, i}, &buf); err != nil {
			return err
		}
	}
	for i, body := range t.runs {
		if _, err := t.do(op{opRun, i}, &buf); err != nil {
			return err
		}
		var got api.RunResponse
		var sent api.RunRequest
		if json.Unmarshal(buf.Bytes(), &got) != nil || json.Unmarshal(body, &sent) != nil ||
			got.Workload != sent.Workload || got.Variant != sent.Variant {
			return fmt.Errorf("POST /api/v1/runs %s: unexpected answer %s", body, tail(buf.Bytes()))
		}
		t.runRef[i] = bytes.Clone(buf.Bytes())
	}
	return nil
}

// closedLoop sends ops from `clients` concurrent clients, each waiting for
// its previous answer, and returns the latencies of the answers that
// passed their checks, in milliseconds, with the count that failed.
func (t *target) closedLoop(ops []op) (lat map[opKind][]float64, failed int) {
	lat = map[opKind][]float64{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1)) - 1
				if j >= len(ops) {
					return
				}
				d, err := t.do(ops[j], &buf)
				mu.Lock()
				if err != nil {
					if failed < 5 {
						fmt.Fprintln(os.Stderr, "perfbench:", err)
					}
					failed++
				} else {
					lat[ops[j].kind] = append(lat[ops[j].kind], float64(d.Nanoseconds())/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, failed
}

// daemon is a running `cubie serve` child.
type daemon struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	done   chan error
	stderr bytes.Buffer
}

// startDaemon boots `cubie serve` over the store on a free loopback port
// and waits until it reports ready.
func startDaemon(cfg config, store, addrFile string) (*daemon, string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, done: make(chan error, 1)}
	d.cmd = exec.CommandContext(ctx, cfg.cubie, "serve", "--addr", "127.0.0.1:0", "--addr-file", addrFile)
	d.cmd.Dir = cfg.runDir
	d.cmd.Env = childEnv(cfg.runDir, store)
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		cancel()
		return nil, "", err
	}
	go func() { d.done <- d.cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			addr := strings.TrimSpace(string(data))
			if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, addr, nil
				}
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, "", fmt.Errorf("cubie serve exited during start-up: %v: %s", err, tail(d.stderr.Bytes()))
		case <-time.After(20 * time.Millisecond):
		}
	}
	d.stop()
	return nil, "", fmt.Errorf("cubie serve not ready after 60 s")
}

// stop sends SIGTERM, waits for the graceful drain, and kills the daemon
// if the drain does not finish in time.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(40 * time.Second):
		d.cancel()
		<-d.done
	}
	d.cancel()
}

// setUpServe populates a fresh store with the figure9 plan's entries (the
// populating command's stdout is the figure9 reference), renders the other
// figure references, boots a daemon over the store and warms it up.
func setUpServe(cfg config, store, addrFile string) (*daemon, *target, error) {
	var figRef [][]byte
	for _, f := range servedFigures {
		p, err := runCubie(cfg, store, f.cmd)
		if err != nil {
			return nil, nil, err
		}
		figRef = append(figRef, p.stdout)
	}
	runs, err := figure9Runs()
	if err != nil {
		return nil, nil, err
	}
	d, addr, err := startDaemon(cfg, store, addrFile)
	if err != nil {
		return nil, nil, err
	}
	t := newTarget(addr)
	for _, f := range servedFigures {
		t.figures = append(t.figures, f.name)
	}
	t.figRef, t.runs = figRef, runs
	if err := t.loadEntries(store); err != nil {
		d.stop()
		return nil, nil, err
	}
	if err := t.warmUp(); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, t, nil
}

// setupRounds is how many times serve-mixed sets up, each time from
// nothing; setup_s is the median. The reps use the last daemon.
const setupRounds = 3

// serveMixed measures a `cubie serve` daemon under the mixed closed loop.
func serveMixed(cfg config) (result, error) {
	var o outcome
	var d *daemon
	var t *target
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, t, err = setUpServe(cfg,
			filepath.Join(cfg.runDir, fmt.Sprintf("store-%d", i)),
			filepath.Join(cfg.runDir, fmt.Sprintf("serve-%d.addr", i)))
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer d.stop()

	pid := d.cmd.Process.Pid
	rng := rand.New(rand.NewSource(cfg.seed))
	byKind := map[opKind][]float64{}
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < cfg.seconds; rep++ {
		ops := repMix(rng, t)
		cpu0, err := procCPU(pid)
		if err != nil {
			return result{}, err
		}
		r0 := time.Now()
		lat, failed := t.closedLoop(ops)
		wall := time.Since(r0).Seconds()
		cpu1, err := procCPU(pid)
		if err != nil {
			return result{}, err
		}
		o.attempted += len(ops)
		o.failed += failed
		o.walls = append(o.walls, wall)
		o.cpus = append(o.cpus, cpu1-cpu0)
		o.busy += wall
		for k, v := range lat {
			byKind[k] = append(byKind[k], v...)
			o.latMS = append(o.latMS, v...)
		}
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return result{}, err
	}
	o.rss = append(o.rss, rss)
	fmt.Printf("serve-mixed: %d reps of %d requests, rep wall %s s, daemon cpu %s s, peak rss %.1f MiB\n",
		len(o.walls), o.attempted/len(o.walls), list(o.walls), list(o.cpus), rss)
	fmt.Println(fmtMS("all requests", o.latMS))
	for k := opGet; k <= opRun; k++ {
		fmt.Println(fmtMS(opNames[k], byKind[k]))
	}
	return o.result()
}
