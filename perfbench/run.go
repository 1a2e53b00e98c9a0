package main

import (
	"fmt"
	"net/http"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up a preloaded server; setup_s
// is the median. In query-zipf each server carries an equal share of the
// timed phase; in mixed the last one carries all of it.
const setupReps = 5

// bench is one run of one workload.
type bench struct {
	workload string
	in       *inputs
	seconds  time.Duration
	trace    bool
	tr       tracer
	servers  []*server // every server started, stopped before exit
	steal    *stealMonitor
}

// measure is everything a run measured.
type measure struct {
	setup  []float64 // s per set-up
	ingest phase     // the stretch ingest_* metrics come from
	query  phase     // the stretch query_* metrics come from
	widths []float64 // mean certified width after one pass, per server
	rss    []float64 // peak RSS per server, MiB
	total  tally     // every operation of the run
	spans  []span

	// The timed phase, for the per-layer breakdown: /metrics deltas and
	// CPU over it, and the main endpoint's round trips split by tracing.
	m               scrape
	serverCPU       float64 // s
	genCPU          float64 // s
	wall            time.Duration
	ops             int
	traced, plain   []float64 // ms
	queueDepthMax   float64
	cfg             status
	ingestWorkers   float64
	haveWorkerGauge bool
}

func (ms *measure) count(ps ...phase) {
	for _, p := range ps {
		ms.total.add(p.tally)
		ms.spans = append(ms.spans, p.spans...)
	}
}

// rtt files a phase's round trips under the traced or untraced side.
func (ms *measure) rtt(traced bool, lat []float64) {
	if traced {
		ms.traced = append(ms.traced, lat...)
	} else {
		ms.plain = append(ms.plain, lat...)
	}
}

func (b *bench) start() (*server, error) {
	s, err := startServer(serverBin)
	if err != nil {
		return nil, err
	}
	b.servers = append(b.servers, s)
	return s, nil
}

func (b *bench) stopAll() {
	for _, s := range b.servers {
		s.stop()
	}
}

func genCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// bracket opens a timed-phase window on srv: a /metrics scrape, both
// processes' CPU, and the wall clock.
type bracket struct {
	m         scrape
	serverCPU float64
	genCPU    float64
	t         time.Time
	stopQueue func() float64
}

func (b *bench) open(srv *server) (bracket, error) {
	m, err := srv.metrics()
	if err != nil {
		return bracket{}, err
	}
	cpu, err := srv.cpuSeconds()
	if err != nil {
		return bracket{}, err
	}
	br := bracket{m: m, serverCPU: cpu, genCPU: genCPUSeconds(), t: time.Now(), stopQueue: func() float64 { return 0 }}
	if b.trace {
		br.stopQueue = sampleQueueDepth(srv)
	}
	return br, nil
}

// close ends the window, adding its deltas and ops to ms.
func (b *bench) close(srv *server, br bracket, ms *measure, ops int) error {
	depth := br.stopQueue()
	wall := time.Since(br.t)
	gen := genCPUSeconds() - br.genCPU
	m, err := srv.metrics()
	if err != nil {
		return err
	}
	cpu, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	if ms.m == nil {
		ms.m = scrape{}
	}
	for k, v := range delta(br.m, m) {
		ms.m[k] += v
	}
	ms.serverCPU += cpu - br.serverCPU
	ms.genCPU += gen
	ms.wall += wall
	ms.ops += ops
	ms.queueDepthMax = max(ms.queueDepthMax, depth)
	if w, ok := m["ingest_workers"]; ok {
		ms.ingestWorkers, ms.haveWorkerGauge = w, true
	}
	return nil
}

// sampleQueueDepth polls the ingest queue gauge every 50 ms until the
// returned stop is called, which reports the highest depth seen.
func sampleQueueDepth(srv *server) func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		var peak float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				if m, err := srv.metrics(); err == nil {
					peak = max(peak, m.sumPrefix("ingest_queue_depth_batches"))
				}
			}
		}
	}()
	return func() float64 { close(stop); return <-done }
}

// finish records what the end of a server's life shows: its effective
// configuration and peak RSS.
func (b *bench) finish(srv *server, ms *measure) error {
	st, err := srv.status()
	if err != nil {
		return err
	}
	ms.cfg = st
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	ms.rss = append(ms.rss, rss)
	srv.stop()
	return nil
}

// stretch is one part of a timed phase.
type stretch struct {
	until  time.Time
	traced bool
}

// halves splits a timed phase of length d: untraced first, then traced,
// so one traced run measures its own tracing overhead. Untraced runs use
// the whole phase.
func (b *bench) halves(start time.Time, d time.Duration) []stretch {
	end := start.Add(d)
	if !b.trace {
		return []stretch{{end, false}}
	}
	return []stretch{{start.Add(d / 2), false}, {end, true}}
}

// runIngest is the ingest workload: rounds of a fresh server taking one
// pass of the stream over both connections, then the end-of-round check
// of every distinct key, until the run's time is spent.
func (b *bench) runIngest(ms *measure) error {
	o := b.in.oracle
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < b.seconds; round++ {
		traced := b.trace && round%2 == 1
		srv, err := b.start()
		if err != nil {
			return err
		}
		ms.setup = append(ms.setup, srv.ready.Seconds())
		hc := newLoadClient(conns)
		br, err := b.open(srv)
		if err != nil {
			return err
		}
		p, acked := b.ingestPass(hc, srv.base, traced)
		if err := b.close(srv, br, ms, p.attempted); err != nil {
			return err
		}
		ms.ingest.add(p)
		ms.rtt(traced, p.latencies())
		v, width := b.verify(hc, srv.base, o.passCounts(acked), o.total, false)
		ms.query.add(v)
		ms.widths = append(ms.widths, width)
		ms.count(p, v)
		hc.CloseIdleConnections()
		if err := b.finish(srv, ms); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts a server and posts it one pass of the stream; setup_s
// counts both. It returns the server, its client, the one-pass exact
// counts of what was acked, and whether every batch was. With keepIngest
// the pass also supplies the run's ingest_* figures.
func (b *bench) setUp(ms *measure, keepIngest bool) (*server, *http.Client, []uint64, bool, error) {
	t0 := time.Now()
	srv, err := b.start()
	if err != nil {
		return nil, nil, nil, false, err
	}
	hc := newLoadClient(conns)
	p, acked := b.ingestPass(hc, srv.base, false)
	ms.setup = append(ms.setup, time.Since(t0).Seconds())
	ms.count(p)
	if keepIngest {
		ms.ingest.add(p)
	}
	ok := true
	for _, a := range acked {
		ok = ok && a
	}
	return srv, hc, b.in.oracle.passCounts(acked), ok, nil
}

// preload sets up a server setupReps times, keeping the last.
func (b *bench) preload(ms *measure) (*server, *http.Client, []uint64, bool, error) {
	for i := 1; i < setupReps; i++ {
		srv, hc, _, _, err := b.setUp(ms, false)
		if err != nil {
			return nil, nil, nil, false, err
		}
		hc.CloseIdleConnections()
		srv.stop()
	}
	return b.setUp(ms, false)
}

// runQueryZipf is the query-zipf workload: setupReps rounds, each on a
// freshly set-up server whose state then no longer changes. Both
// connections post popularity-drawn point batches for the round's share of
// the run, then every distinct key is checked. Taking the timed phase and
// the set-up passes in turns samples both over the whole run, so a slow
// stretch of the machine shifts a share of each rather than all of one.
func (b *bench) runQueryZipf(ms *measure) error {
	hi := b.in.oracle.total
	for i := 0; i < setupReps; i++ {
		srv, hc, lo, _, err := b.setUp(ms, true)
		if err != nil {
			return err
		}
		br, err := b.open(srv)
		if err != nil {
			return err
		}
		ops := 0
		for _, h := range b.halves(time.Now(), b.seconds/setupReps) {
			p := b.zipfQueries(hc, srv.base, h.until, h.traced, lo, hi)
			ms.query.add(p)
			ms.rtt(h.traced, p.latencies())
			ms.count(p)
			ops += p.attempted
		}
		if err := b.close(srv, br, ms, ops); err != nil {
			return err
		}
		v, width := b.verify(hc, srv.base, lo, hi, false)
		ms.count(v)
		ms.widths = append(ms.widths, width)
		hc.CloseIdleConnections()
		if err := b.finish(srv, ms); err != nil {
			return err
		}
	}
	return nil
}

// runMixed is the mixed workload: over a preloaded server, one connection
// keeps ingesting while the other queries every distinct key in shuffled
// order; then, with the server idle, every distinct key is checked against
// the counts the writer had acked and posted.
func (b *bench) runMixed(ms *measure) error {
	srv, hc, lo, preloaded, err := b.preload(ms)
	if err != nil {
		return err
	}
	defer hc.CloseIdleConnections()
	o := b.in.oracle
	// The width after one pass, comparable across workloads; the phase
	// below keeps writing, so the end-of-run state depends on throughput.
	v, width := b.verify(hc, srv.base, lo, o.total, false)
	ms.count(v)
	ms.widths = append(ms.widths, width)

	br, err := b.open(srv)
	if err != nil {
		return err
	}
	start, ops := time.Now(), 0
	// sent counts the batches posted after the preload; acked is the
	// length of their unbroken acked prefix.
	sent, acked := 0, 0
	for _, h := range b.halves(start, b.seconds) {
		whole := preloaded && acked == sent
		ing, qry, s, a := b.mixedLoad(hc, srv.base, sent, h.until, h.traced, whole)
		if acked == sent {
			acked = sent + a
		}
		sent += s
		ms.ingest.add(ing)
		ms.query.add(qry)
		ms.rtt(h.traced, qry.latencies())
		ms.count(ing, qry)
		ops += ing.attempted + qry.attempted
	}
	if err := b.close(srv, br, ms, ops); err != nil {
		return err
	}
	nb := len(b.in.ingest)
	endLo, endHi := make([]uint64, len(o.keys)), make([]uint64, len(o.keys))
	for id := range o.keys {
		if preloaded {
			endLo[id] = o.prefixCount(int32(id), nb+acked)
		}
		endHi[id] = o.prefixCount(int32(id), nb+sent)
	}
	end, _ := b.verify(hc, srv.base, endLo, endHi, true)
	ms.count(end)
	return b.finish(srv, ms)
}

func (b *bench) run() (*measure, error) {
	ms := &measure{}
	var err error
	switch b.workload {
	case "ingest":
		err = b.runIngest(ms)
	case "query-zipf":
		err = b.runQueryZipf(ms)
	case "mixed":
		err = b.runMixed(ms)
	default:
		err = fmt.Errorf("unknown workload %q", b.workload)
	}
	return ms, err
}
