package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one rsserve process started with every flag at its default
// except the listen address.
type server struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // launch to the first answered /v1/status
	out   *lockedBuffer
	done  chan struct{} // closed once the process has been waited for
	err   error         // the Wait result, valid after done
}

// lockedBuffer collects the child's output; exec copies into it from its
// own goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// probe is the readiness, status and scrape client: one short-lived
// connection per call, so it never takes a keep-alive slot from the load.
var probe = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin and waits until it answers /v1/status.
func startServer(bin string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, out: &lockedBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-listen", addr)
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.out
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { s.err = s.cmd.Wait(); close(s.done) }()
	deadline := start.Add(20 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("rsserve exited before ready (%v): %s", s.err, s.out.String())
		default:
		}
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			if resp, err := probe.Get(s.base + "/v1/status"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.ready = time.Since(start)
					return s, nil
				}
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rsserve not ready after 20s: %s", s.out.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop interrupts the server (its clean-shutdown signal) and waits for it
// to exit, killing it if it has not within 10 s.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(os.Interrupt) // a failure means it already exited; done reports it
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // same: Wait below is what matters
		<-s.done
	}
}

// procStatus reads one "Key:  value kB" field of /proc/<pid>/status.
func (s *server) procStatus(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in server status", key)
}

// peakRSSMB is the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	kb, err := s.procStatus("VmHWM")
	return kb / 1024, err
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds is the server's user + system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short server stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing server stat: %w", err)
	}
	return (ut + st) / clockTicks, nil
}

func (s *server) metrics() (scrape, error) {
	resp, err := probe.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// status is the part of /v1/status the report records.
type status struct {
	Backend struct {
		Mode string `json:"mode"`
		Algo string `json:"algo"`
	} `json:"backend"`
	Cache struct {
		Policy string `json:"policy"`
		Shards int    `json:"shards"`
	} `json:"cache"`
}

func (s *server) status() (status, error) {
	var st status
	resp, err := probe.Get(s.base + "/v1/status")
	if err != nil {
		return st, fmt.Errorf("reading /v1/status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("reading /v1/status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/status: %w", err)
	}
	return st, nil
}
