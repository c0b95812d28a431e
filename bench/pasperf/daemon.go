package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/facet"
	"repro/internal/sft"
	"repro/internal/simllm"
)

// buildDir holds everything the benchmark writes apart from its
// reports: daemon binaries, the trained model, and per-run logs. It is
// relative to the module root and listed in .gitignore.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the go.mod of
// module repro, so the benchmark runs from the root (go run, run.sh)
// and from its own package directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod of module repro not found above the working directory")
		}
		dir = parent
	}
}

// buildDaemons compiles cmd/passerve and cmd/pasproxy from the tree.
// With a warm build cache this is a stat-and-hash pass.
func buildDaemons(root string) (binDir string, err error) {
	binDir = filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/passerve", "./cmd/pasproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build of the daemons: %w\n%s", err, out)
	}
	return binDir, nil
}

// trainModel is the set-up's model build: D_golden -> SFT -> file. The
// golden pairs are the smallest dataset the repo ships that trains a
// complete policy, so set-up stays a fraction of a second.
func trainModel(path string) (*sft.Model, error) {
	base, err := simllm.LookupProfile(simllm.Qwen27B)
	if err != nil {
		return nil, err
	}
	baseModel, err := simllm.New(base)
	if err != nil {
		return nil, err
	}
	data := &dataset.Dataset{}
	golden := dataset.Golden()
	for _, c := range facet.Categories() {
		for _, p := range golden[c] {
			if err := data.Add(p); err != nil {
				return nil, fmt.Errorf("golden pair: %w", err)
			}
		}
	}
	model, err := sft.Train(baseModel, data, sft.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := model.SaveFile(path); err != nil {
		return nil, err
	}
	return model, nil
}

func fileSHA256(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// daemon is one spawned passerve or pasproxy.
type daemon struct {
	kind string // "passerve" or "pasproxy"
	argv []string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// testbed is the set of daemons one workload runs against.
type testbed struct {
	daemons []*daemon
	target  string   // base URL the load is sent to
	cores   []string // base URLs whose /v1/stats is a serving-core snapshot
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the daemon binds it, so a start can lose the race;
// startTestbed retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func spawn(binDir, runDir, kind string, n int, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(runDir, fmt.Sprintf("%s-%d.stderr", kind, n)))
	if err != nil {
		return nil, err
	}
	argv := append([]string{filepath.Join(binDir, kind), "-addr", addr}, args...)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written to it
		return nil, fmt.Errorf("starting %s: %w", kind, err)
	}
	d := &daemon{kind: kind, argv: argv, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status of a killed daemon carries nothing
		close(d.done)
	}()
	return d, nil
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	_ = d.log.Close() // the daemon's stderr; its writer is gone
}

// waitReady polls url until it answers 200 and ok(body) holds, the
// daemon exits, or the deadline passes.
func (d *daemon) waitReady(hc *http.Client, path string, ok func([]byte) bool, deadline time.Time) error {
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready; stderr: %s", d.kind, d.log.Name())
		default:
		}
		resp, err := hc.Get(d.url + path)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close() // a probe; the next one follows in 2 ms
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s%s after the deadline; stderr: %s", d.kind, d.url, path, d.log.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readyTimeout is generous because the smoke test may run beside
// other packages' tests on a box with two CPUs.
const readyTimeout = 30 * time.Second

// startTestbed spawns the workload's daemons with default flags — only
// -model, -addr, -upstream and -replicas are set — and returns once
// every daemon answers and, in cluster mode, the proxy's ring reports
// every replica live.
func startTestbed(workload, binDir, runDir, modelPath, stubURL string) (*testbed, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		tb, err := startOnce(workload, binDir, runDir, modelPath, stubURL)
		if err == nil {
			return tb, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startOnce(workload, binDir, runDir, modelPath, stubURL string) (_ *testbed, err error) {
	tb := &testbed{}
	defer func() {
		if err != nil {
			tb.stop()
		}
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(readyTimeout)
	serve := func(n int) (*daemon, error) {
		d, err := spawn(binDir, runDir, "passerve", n, "-model", modelPath)
		if err != nil {
			return nil, err
		}
		tb.daemons = append(tb.daemons, d)
		tb.cores = append(tb.cores, d.url)
		return d, nil
	}
	switch workload {
	case serveHot, serveCold:
		d, err := serve(0)
		if err != nil {
			return nil, err
		}
		tb.target = d.url
		return tb, d.waitReady(hc, "/healthz", nil, deadline)
	case proxyChat:
		d, err := spawn(binDir, runDir, "pasproxy", 0, "-model", modelPath, "-upstream", stubURL)
		if err != nil {
			return nil, err
		}
		tb.daemons = append(tb.daemons, d)
		tb.cores = append(tb.cores, d.url)
		tb.target = d.url
		return tb, d.waitReady(hc, "/v1/stats", nil, deadline)
	case clusterZipf:
		const replicas = 3
		var urls []string
		for i := 0; i < replicas; i++ {
			d, err := serve(i)
			if err != nil {
				return nil, err
			}
			urls = append(urls, d.url)
		}
		for _, d := range tb.daemons {
			if err := d.waitReady(hc, "/healthz", nil, deadline); err != nil {
				return nil, err
			}
		}
		d, err := spawn(binDir, runDir, "pasproxy", 0, "-upstream", stubURL, "-replicas", strings.Join(urls, ","))
		if err != nil {
			return nil, err
		}
		tb.daemons = append(tb.daemons, d)
		tb.target = d.url
		ringUp := func(body []byte) bool {
			var s struct {
				Live int `json:"live"`
			}
			return json.Unmarshal(body, &s) == nil && s.Live == replicas
		}
		return tb, d.waitReady(hc, "/v1/stats", ringUp, deadline)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func (tb *testbed) stop() {
	for _, d := range tb.daemons {
		d.stop()
	}
}

func (tb *testbed) argv() [][]string {
	var out [][]string
	for _, d := range tb.daemons {
		out = append(out, d.argv)
	}
	return out
}

// clockTick is the kernel's USER_HZ. Linux fixes it at 100 on every
// architecture Go supports; sysconf is not reachable without cgo.
const clockTick = 100

// cpuTicks returns a process's utime+stime from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; fields
	// are counted after the closing one.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times: %q %q", pid, f[11], f[12])
	}
	return utime + stime, nil
}

// cpuMicros returns the CPU time each daemon has used so far, by kind.
func (tb *testbed) cpuMicros() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range tb.daemons {
		t, err := cpuTicks(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[d.kind] += float64(t) * 1e6 / clockTick
	}
	return out, nil
}

// selfCPUMicros is the generator process's own CPU time, stub upstream
// and oracle included.
func selfCPUMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB sums the daemons' peak resident set sizes (VmHWM).
func (tb *testbed) rssPeakMB() (float64, error) {
	var kb float64
	for _, d := range tb.daemons {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// "VmHWM:	   15976 kB"
		_, rest, found := strings.Cut(string(b), "VmHWM:")
		var v float64
		if _, err := fmt.Sscanf(rest, "%f kB", &v); !found || err != nil {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status of %s", d.cmd.Process.Pid, d.kind)
		}
		kb += v
	}
	return kb / 1024, nil
}

// coreStats sums the serving cores' cache counters over the replicas.
type coreStats struct {
	Hits, Misses, Evictions float64
}

func (tb *testbed) coreStats(ctx context.Context, hc *http.Client) (coreStats, error) {
	var sum coreStats
	for _, u := range tb.cores {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
		if err != nil {
			return sum, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return sum, err
		}
		var s struct {
			Cache struct {
				Hits      float64 `json:"hits"`
				Misses    float64 `json:"misses"`
				Evictions float64 `json:"evictions"`
			} `json:"cache"`
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		_ = resp.Body.Close() // decoded already
		if err != nil {
			return sum, fmt.Errorf("decoding %s/v1/stats: %w", u, err)
		}
		sum.Hits += s.Cache.Hits
		sum.Misses += s.Cache.Misses
		sum.Evictions += s.Cache.Evictions
	}
	return sum, nil
}
