package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one tdserve child process.
type server struct {
	cmd  *exec.Cmd
	addr string // http://host:port
	done chan error
}

// trainModel builds the model tdserve serves. Its settings are fixed: the
// model is part of the program under test, not a benchmark input.
func trainModel(ctx context.Context, bin, out string) error {
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "tdtrain"), "-out", out, "-seed", "1")
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("tdtrain: %w", err)
	}
	return nil
}

// setUp trains a model into dir and starts tdserve over it with a fresh
// store and job journal, returning once /readyz answers 200. The access
// log stays on, as deployed, and goes to the null device; flight sets the
// flight-recorder capacity (0 turns it off).
func setUp(ctx context.Context, bin, dir string, flight int) (*server, time.Duration, error) {
	t0 := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	model := filepath.Join(dir, "model.gob")
	if err := trainModel(ctx, bin, model); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(bin, "tdserve"),
		"-model", model,
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"),
		"-jobs", filepath.Join(dir, "jobs"),
		"-flight", strconv.Itoa(flight),
		"-drain", "5s")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = nil // the access log: os/exec connects nil to the null device
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tdserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		_, _ = io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	select {
	case l, ok := <-line:
		addr, found := strings.CutPrefix(l, "listening on ")
		if !ok || !found {
			s.stop()
			return nil, 0, fmt.Errorf("tdserve did not report its address (got %q)", l)
		}
		s.addr = "http://" + addr
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("tdserve did not start within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("tdserve not ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 10s) and waits
// for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procStat is a sample of the server's CPU time and peak resident set.
type procStat struct {
	cpu   time.Duration // user + system
	sys   time.Duration // the part of cpu spent in the kernel
	hwmKB int64
	io    map[string]int64 // /proc/<pid>/io counters
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// Linux fixes it at 100 on every mainstream architecture.
const clockTick = 10 * time.Millisecond

func (s *server) sample() (procStat, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	var out procStat
	out.cpu = time.Duration(ut+st) * clockTick
	out.sys = time.Duration(st) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	for _, l := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			out.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	out.io = map[string]int64{}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ": "); ok {
				out.io[k], _ = strconv.ParseInt(v, 10, 64)
			}
		}
	}
	return out, nil
}

// promSample maps each Prometheus series (name plus labels) to its value.
type promSample map[string]float64

// scrape reads /metrics.
func (s *server) scrape() (promSample, error) {
	resp, err := http.Get(s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || l[0] == '#' {
			continue
		}
		// An exemplar, if any, follows " # ".
		if i := strings.Index(l, " # "); i >= 0 {
			l = l[:i]
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			continue
		}
		out[l[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after.
func (after promSample) delta(before promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get returns a series' value, 0 when the series is absent.
func (p promSample) get(series string) float64 { return p[series] }

// getFlight fetches the flight recorder's dump.
func (s *server) getFlight() ([]byte, error) {
	resp, err := http.Get(s.addr + "/debug/flight")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/flight: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// hostSteal returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros when unreadable).
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// calibSink keeps hostCalibMS's loop from being optimised away.
var calibSink uint64

// hostCalibMS times a fixed single-threaded integer loop. It is a validity
// check on the host's CPU speed, which on a shared host varies even when
// the hypervisor steals no time.
func hostCalibMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0)) / 1e6
}
