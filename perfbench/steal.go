package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealMonitor samples the machine's CPU steal time (/proc/stat) so a
// window in which the hypervisor ran other guests on this machine's CPUs
// can be told apart from one in which the program under test was slow.
type stealMonitor struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	at    []time.Duration // since the run began
	ticks []float64       // cumulative steal, USER_HZ ticks
}

// stealPeriod is how often steal is sampled: short enough that the
// hypervisor's time slices for other guests leave whole periods
// untouched, long enough to hold a 10 ms steal tick.
const stealPeriod = 20 * time.Millisecond

func readSteal() (float64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[8], 64)
	return v, err == nil
}

func startStealMonitor(origin time.Time) *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			if v, ok := readSteal(); ok {
				m.mu.Lock()
				m.at = append(m.at, time.Since(origin))
				m.ticks = append(m.ticks, v)
				m.mu.Unlock()
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
}

// share is the fraction of the machine's CPU time stolen over [a, b],
// read from the samples enclosing it; 0 without samples. A span inside one
// sampling period is charged that whole period's steal.
func (m *stealMonitor) share(a, b time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.at) < 2 {
		return 0
	}
	i := max(0, sort.Search(len(m.at), func(k int) bool { return m.at[k] > a })-1)
	j := min(len(m.at)-1, sort.Search(len(m.at), func(k int) bool { return m.at[k] >= b }))
	if j <= i {
		return 0
	}
	span := (m.at[j] - m.at[i]).Seconds() * float64(runtime.NumCPU()) * clockTicks
	return ratio(m.ticks[j]-m.ticks[i], span)
}

// pieces cuts w at the monitor's sample times, so each piece lies in one
// sampling period.
func (m *stealMonitor) pieces(w window) []window {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []window
	start := w.start
	for _, t := range m.at {
		if t > start && t < w.end {
			out = append(out, window{start, t})
			start = t
		}
	}
	return append(out, window{start, w.end})
}

// cleanSteal is the steal share above which a measurement counts as
// disturbed: the hypervisor took that much of the machine's CPU time for
// other guests while it was taken. Over one 20 ms sampling period on 2
// CPUs a single stolen tick (10 ms) is 25%, so only unstolen periods pass.
const cleanSteal = 0.02

// quiet marks the measurements to keep, given the steal share each was
// taken under: those at or below cleanSteal, or, when fewer than half
// were, those at or below the median share, so a run disturbed throughout
// keeps its quietest half.
func quiet(shares []float64) []bool {
	limit := max(cleanSteal, median(shares))
	keep := make([]bool, len(shares))
	for i, s := range shares {
		keep[i] = s <= limit
	}
	return keep
}
