package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one resilientd child process.
type daemon struct {
	listen, http string
	cmd          *exec.Cmd
	done         chan struct{}
	// hwmKiB is the process's peak resident set, read just before it is
	// stopped (the kernel discards it with the process).
	hwmKiB int64
}

// children tracks every live daemon so that any exit path, a signal
// included, can reap them.
var children struct {
	mu  sync.Mutex
	set map[*daemon]bool
}

// freePorts returns n distinct loopback addresses nobody listens on
// right now. All n are held open until the last is chosen, so the
// kernel cannot hand out one port twice.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startDaemon spawns resilientd with the shipped defaults plus args.
// The child dies with the benchmark even if the benchmark is killed.
func startDaemon(bin, logDir, listen, httpAddr string, args ...string) (*daemon, error) {
	all := append([]string{"-listen", listen, "-http", httpAddr}, args...)
	cmd := exec.Command(bin, all...)
	logName := filepath.Join(logDir, strings.ReplaceAll(listen, ":", "_")+".log")
	logf, err := os.OpenFile(logName, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	d := &daemon{listen: listen, http: httpAddr, cmd: cmd, done: make(chan struct{})}
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.set == nil {
		children.set = make(map[*daemon]bool)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start resilientd: %w", err)
	}
	children.set[d] = true
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the daemon and waits until it has been reaped.
func (d *daemon) kill() {
	if !d.exited() {
		if hwm, err := procHWM(d.pid()); err == nil {
			d.hwmKiB = hwm
		}
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	children.mu.Lock()
	delete(children.set, d)
	children.mu.Unlock()
}

// reapAll kills every daemon still running.
func reapAll() {
	children.mu.Lock()
	live := make([]*daemon, 0, len(children.set))
	for d := range children.set {
		live = append(live, d)
	}
	children.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
}

// waitReady polls the daemon's observability port until it answers:
// resilientd opens it last, after every replica group is deployed.
func (d *daemon) waitReady(ctx context.Context) error {
	for {
		if d.exited() {
			return fmt.Errorf("resilientd %s exited during start-up", d.listen)
		}
		c, err := net.DialTimeout("tcp", d.http, 50*time.Millisecond)
		if err == nil {
			return c.Close()
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("resilientd %s not ready: %w", d.listen, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + d.http + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", d.http, path, resp.Status)
	}
	return body, nil
}

// metrics scrapes the daemon's /metrics.
func (d *daemon) metrics() (series, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseSeries(string(body)), nil
}

// series maps a Prometheus sample ("name" or "name{labels}") to its
// value.
type series map[string]float64

func parseSeries(text string) series {
	out := make(series)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every sample of a family whose labels contain all of
// matchers (each `key="value"`).
func (s series) sum(name string, matchers ...string) float64 {
	var total float64
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, m := range matchers {
			if !strings.Contains(k, m) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after − before for one family.
func delta(before, after series, name string, matchers ...string) float64 {
	return after.sum(name, matchers...) - before.sum(name, matchers...)
}

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size in KiB.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
