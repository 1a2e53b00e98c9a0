package main

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	p50, err := percentile(samples, 0.50)
	if err != nil || p50.Value != 500 || p50.N != 1000 {
		t.Fatalf("p50 = %+v, %v; want 500 over 1000 samples", p50, err)
	}
	p99, err := percentile(samples, 0.99)
	if err != nil || p99.Value != 990 || p99.N != 1000 {
		t.Fatalf("p99 = %+v, %v; want 990 over 1000 samples (10 beyond it)", p99, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, n := range []int{0, 1, 50, 999} {
		samples := make([]float64, n)
		q, err := percentile(samples, 0.99)
		if !errors.Is(err, errTooFewSamples) {
			t.Errorf("p99 of %d samples: err = %v, want errTooFewSamples", n, err)
		}
		if q.N != n {
			t.Errorf("p99 of %d samples reports n=%d", n, q.N)
		}
	}
	if _, err := percentile(make([]float64, 19), 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of 19 samples (9 beyond): err = %v, want errTooFewSamples", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// sampled is a steal monitor sampled every 100 ms over [0, n s) that saw
// the whole machine's CPU stolen during the seconds listed in stolen.
func sampled(n int, stolen ...int) *stealMonitor {
	m := &stealMonitor{}
	var ticks float64
	for i := 0; i <= n*10; i++ {
		m.at = append(m.at, time.Duration(i)*100*time.Millisecond)
		m.ticks = append(m.ticks, ticks)
		for _, sec := range stolen {
			if i/10 == sec {
				ticks += 0.1 * float64(runtime.NumCPU()) * clockTicks
			}
		}
	}
	return m
}

func TestPhaseRateIsMedianWindow(t *testing.T) {
	sec := time.Second
	// Four 1 s windows completing 10, 20, 30 and 1000 units: the median
	// window rate is 25/s whatever the outlier.
	p := phase{stretches: []window{{0, 4 * sec}}}
	for i, units := range []int{10, 20, 30, 1000} {
		p.samples = append(p.samples, sample{end: time.Duration(i)*sec + sec/2, ms: 1, units: units})
	}
	if v, used, of := p.perSecond(sampled(4)); v != 25 || used != 4 || of != 4 {
		t.Errorf("perSecond = %v over %d of %d windows, want 25 over 4 of 4", v, used, of)
	}
	// CPU stolen throughout the last second: that window is left out.
	if v, used, of := p.perSecond(sampled(4, 3)); v != 20 || used != 3 || of != 4 {
		t.Errorf("perSecond with steal = %v over %d of %d windows, want 20 over 3 of 4", v, used, of)
	}
}

func TestPhasePercentileIsMedianWindow(t *testing.T) {
	// 3000 requests in completion order: three windows of 1000 whose p99s
	// are 10, 20 and 30 ms; the median window reports 20.
	var p phase
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if i >= 980 {
				ms = float64(10 * (w + 1))
			}
			p.samples = append(p.samples, sample{end: time.Duration(w*1000+i+1) * time.Millisecond, ms: ms})
		}
	}
	q, all, err := p.percentile(sampled(3), 0.99)
	if err != nil || q.Value != 20 || q.N != 3000 || all != 3000 {
		t.Errorf("p99 = %+v of %d (%v), want 20 over 3000", q, all, err)
	}
	// With the last second stolen, its requests are left out: two windows
	// of 1000 remain, p99s 10 and 20.
	q, all, err = p.percentile(sampled(3, 2), 0.99)
	if err != nil || q.Value != 15 || q.N != 2000 || all != 3000 {
		t.Errorf("p99 with steal = %+v of %d (%v), want 15 over 2000 of 3000", q, all, err)
	}
	p.samples = p.samples[:999]
	if _, _, err := p.percentile(sampled(3), 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 requests: err = %v, want errTooFewSamples", err)
	}
}

func TestQuietKeepsUnstolenOrLeastStolenHalf(t *testing.T) {
	if got := quiet([]float64{0, 0.01, 0, 0.5}); !reflect.DeepEqual(got, []bool{true, true, true, false}) {
		t.Errorf("quiet = %v, want the three unstolen", got)
	}
	if got := quiet([]float64{0.1, 0.3, 0.2, 0.5}); !reflect.DeepEqual(got, []bool{true, false, true, false}) {
		t.Errorf("quiet = %v, want the least stolen half", got)
	}
	m := sampled(2, 1)
	if s := m.share(0, time.Second); s != 0 {
		t.Errorf("share of the quiet second = %v", s)
	}
	if s := m.share(1500*time.Millisecond, 1510*time.Millisecond); s != 1 {
		t.Errorf("share inside the stolen second = %v, want 1", s)
	}
}
