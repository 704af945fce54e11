package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds any one child process, so a hung cubie fails the
// run instead of outliving it.
const childTimeout = 150 * time.Second

// childEnv returns the environment every child process runs in. Inherited
// CUBIE_* settings are dropped, the persisted tuned geometry is ignored,
// and the run cache, home and temp directories all point into the run's
// own scratch directory: a leftover `cubie tune` file or a warm per-user
// run cache would otherwise make two trees measure different programs.
// cache is the CUBIE_CACHE value.
func childEnv(runDir, cache string) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(k, "CUBIE_"), k == "HOME", k == "XDG_CACHE_HOME", k == "TMPDIR":
			continue
		}
		env = append(env, kv)
	}
	return append(env,
		"HOME="+filepath.Join(runDir, "home"),
		"XDG_CACHE_HOME="+filepath.Join(runDir, "xdg-cache"),
		"TMPDIR="+filepath.Join(runDir, "tmp"),
		"CUBIE_TUNED=off",
		"CUBIE_CACHE="+cache,
	)
}

// prepareRunDir creates the directories childEnv points at.
func prepareRunDir(runDir string) error {
	for _, d := range []string{"home", "xdg-cache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(runDir, d), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// proc is one finished child process.
type proc struct {
	stdout []byte
	wall   float64 // seconds from launch to exit
	cpu    float64 // user+system CPU seconds
	rssMiB float64 // peak resident set
}

// runCubie runs the cubie binary to completion with the hermetic
// environment and returns its stdout and resource use. A non-zero exit is
// an error carrying the tail of stderr.
func runCubie(cfg config, cache string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.cubie, args...)
	cmd.Dir = cfg.runDir
	cmd.Env = childEnv(cfg.runDir, cache)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return proc{}, fmt.Errorf("cubie %s: %v: %s", strings.Join(args, " "), err, tail(stderr.Bytes()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return proc{
		stdout: stdout.Bytes(),
		wall:   wall,
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func tail(b []byte) string {
	const n = 600
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// counter returns the value of one unlabelled series from a Prometheus
// text snapshot written by `cubie --metrics`.
func counter(prom []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metrics snapshot has no %s", name)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU returns the user+system CPU seconds a live process has used.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (u + s) / clockTicks, nil
}

// procPeakRSS returns a live process's resident-set high-water mark in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}
