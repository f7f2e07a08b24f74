package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates everything the harness reads or writes. All of it lies
// under the repository root.
type paths struct {
	root  string // repository root (holds go.mod and benchmark/)
	build string // .bench_build: daemon binaries, trained artifacts, go cache
	out   string // benchmark/out: daemon logs and span files
}

// newPaths finds the repository root: the working directory when it holds
// benchmark/ (run.sh starts the harness there), its parent when the
// harness is started inside benchmark/ (go run .).
func newPaths() (paths, error) {
	root := ".."
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		root = "."
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return paths{}, err
	}
	for _, f := range []string{"go.mod", filepath.Join("benchmark", "go.mod")} {
		if _, err := os.Stat(filepath.Join(abs, f)); err != nil {
			return paths{}, fmt.Errorf("%s is not the repository root: %w", abs, err)
		}
	}
	p := paths{root: abs, build: filepath.Join(abs, ".bench_build"), out: filepath.Join(abs, "benchmark", "out")}
	for _, d := range []string{filepath.Join(p.build, "bin"), p.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return paths{}, err
		}
	}
	return p, nil
}

// buildDaemons compiles qcfe-serve and qcfe-router from the working tree.
// The build cache lives under .bench_build unless the caller chose one.
func (p paths) buildDaemons() error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(p.build, "bin")+string(os.PathSeparator),
		"./cmd/qcfe-serve", "./cmd/qcfe-router")
	cmd.Dir = p.root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env,
			"GOCACHE="+filepath.Join(p.build, "gocache"),
			"GOMODCACHE="+filepath.Join(p.build, "gomodcache"),
			"GOTOOLCHAIN=local")
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return nil
}

func (p paths) bin(name string) string { return filepath.Join(p.build, "bin", name) }

// children tracks every process the harness starts so that each exit
// path can stop them all and check that none survives.
type children struct {
	mu    sync.Mutex
	procs []*daemon
}

var started children

// daemon is one running child process.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// freePort obtains a loopback port by binding and releasing it: the one
// asked for, or any when port is 0. A caller that names a port needs that
// one, so finding it taken is an error.
func freePort(port int) (int, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return 0, err
	}
	return l.Addr().(*net.TCPAddr).Port, l.Close()
}

// startDaemon executes a daemon binary with its output in
// benchmark/out/<workload>-<name>.log. args come after the -addr flag the
// harness picks; port is the port to listen on, 0 for any.
func (p paths) startDaemon(workload, name, bin string, port int, args ...string) (*daemon, error) {
	port, err := freePort(port)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.OpenFile(filepath.Join(p.out, workload+"-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(p.bin(bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The child dies with the harness even when the harness is killed
	// outright, and a terminal's ^C reaches only the harness, which then
	// stops the children itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	started.mu.Lock()
	started.procs = append(started.procs, d)
	started.mu.Unlock()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was healthy; see %s", d.name, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s: %v", d.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process: SIGTERM, then SIGKILL if it has not exited
// within two seconds. It returns once the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(2 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
}

// stopAll stops every child still running and reports any that survives.
func (c *children) stopAll() error {
	c.mu.Lock()
	procs := c.procs
	c.procs = nil
	c.mu.Unlock()
	var survivors []string
	for _, d := range procs {
		d.stop()
		if err := syscall.Kill(d.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			survivors = append(survivors, fmt.Sprintf("%s (pid %d)", d.name, d.cmd.Process.Pid))
		}
	}
	if len(survivors) > 0 {
		return fmt.Errorf("child processes survived: %s", strings.Join(survivors, ", "))
	}
	return nil
}

// forget drops stopped daemons from the registry (repeated set-ups start
// and stop several).
func (c *children) forget(ds ...*daemon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs = slices.DeleteFunc(c.procs, func(p *daemon) bool { return slices.Contains(ds, p) })
}

// cpuSeconds reads utime+stime of a live process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ; fixed on Linux
	return float64(ut+st) / clkTck, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is utime+stime of the harness itself.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// getJSON fetches a daemon endpoint into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
