package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

const (
	epIngest = "/v2/ingest"
	epQuery  = "/v2/query"
)

// span is one timed call: a client request, or a call into a layer during
// the in-process replay (Parent links a backend call to its handler).
// Times are microseconds since the run began.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer hands out span ids and timestamps relative to one origin.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) span(id, parent uint64, layer, name string, start, end time.Time) span {
	return span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3,
	}
}

// newLoadClient is the generator's HTTP client: at most conns keep-alive
// connections to the server.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// tally counts operations (requests) and the ones that failed: a transport
// error, a non-2xx reply, a malformed reply, or a certified interval that
// misses the exact count.
type tally struct {
	attempted int
	failed    int
	badKeys   int // keys whose certified interval missed
	cachedOps int // query replies that served at least one cached key
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.badKeys += o.badKeys
	t.cachedOps += o.cachedOps
}

// worker is one closed-loop caller: it sends its next request only after
// the previous reply has been read.
type worker struct {
	hc    *http.Client
	base  string
	tr    *tracer
	trace bool
	buf   bytes.Buffer
	ans   answer

	samples []sample
	spans   []span
	tally
}

// sample is one completed request: when its reply was read (since the run
// began), its round trip, and the items acked or keys answered by it (0
// when it failed).
type sample struct {
	end   time.Duration
	ms    float64
	units int
}

func newWorker(hc *http.Client, base string, tr *tracer, trace bool) *worker {
	return &worker{hc: hc, base: base, tr: tr, trace: trace}
}

// post sends one pre-encoded body and reads the whole reply into w.buf.
// It counts the attempt and records the round trip; the caller judges the
// reply and counts a failure.
func (w *worker) post(ep string, body []byte) error {
	w.attempted++
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, w.base+ep, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	w.samples = append(w.samples, sample{end: end.Sub(w.tr.origin), ms: float64(end.Sub(start).Nanoseconds()) / 1e6})
	if w.trace {
		w.spans = append(w.spans, w.tr.span(w.tr.newID(), 0, "client", ep, start, end))
	}
	if err != nil {
		return fmt.Errorf("reading %s reply: %w", ep, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", ep, resp.Status, bytes.TrimSpace(w.buf.Bytes()))
	}
	return nil
}

// ingest posts one batch and reports whether every item was acked.
func (w *worker) ingest(body []byte, items int) bool {
	if err := w.post(epIngest, body); err != nil {
		w.failed++
		return false
	}
	var ack struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &ack); err != nil || ack.Accepted != items || ack.Dropped != 0 {
		w.failed++
		return false
	}
	w.samples[len(w.samples)-1].units = items
	return true
}

// answer is the part of a /v2/query reply the oracle reads.
type answer struct {
	PerKey     []estimate `json:"per_key"`
	Certified  bool       `json:"certified"`
	CachedKeys int        `json:"cached_keys"`
}

type estimate struct {
	Key   uint64 `json:"key"`
	Lower uint64 `json:"lower"`
	Upper uint64 `json:"upper"`
}

// query posts one point batch and decodes the reply into w.ans, checking
// that it answers exactly the keys asked, in order. The caller checks the
// intervals.
func (w *worker) query(q queryBody) bool {
	if err := w.post(epQuery, q.body); err != nil {
		w.failed++
		return false
	}
	if err := decodeAnswer(w.buf.Bytes(), &w.ans); err != nil || len(w.ans.PerKey) != len(q.keys) {
		w.failed++
		return false
	}
	for i, e := range w.ans.PerKey {
		if e.Key != q.keys[i] {
			w.failed++
			return false
		}
	}
	if w.ans.CachedKeys > 0 {
		w.cachedOps++
	}
	w.samples[len(w.samples)-1].units = len(q.keys)
	return true
}

// checkAnswer runs the oracle over w.ans: bounds(i) is the [lo, hi]
// bracket of key i's true count. One missed key fails the operation.
func (w *worker) checkAnswer(bounds func(i int) (lo, hi uint64)) {
	if !w.ans.Certified {
		return
	}
	bad := 0
	for i, e := range w.ans.PerKey {
		lo, hi := bounds(i)
		if !consistent(e.Lower, e.Upper, lo, hi) {
			bad++
		}
	}
	if bad > 0 {
		w.failed++
		w.badKeys += bad
	}
}

// phase is what a set of workers measured over one or more stretches of a
// run.
type phase struct {
	samples   []sample
	stretches []window // when each stretch ran, since the run began
	spans     []span
	tally
}

type window struct{ start, end time.Duration }

// measured builds the phase of workers ws that ran from start until now.
func measured(tr *tracer, start time.Time, ws ...*worker) phase {
	p := phase{stretches: []window{{start.Sub(tr.origin), time.Since(tr.origin)}}}
	for _, w := range ws {
		p.samples = append(p.samples, w.samples...)
		p.spans = append(p.spans, w.spans...)
		p.tally.add(w.tally)
	}
	return p
}

func (p *phase) add(o phase) {
	p.samples = append(p.samples, o.samples...)
	p.stretches = append(p.stretches, o.stretches...)
	p.spans = append(p.spans, o.spans...)
	p.tally.add(o.tally)
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
	}
	return out
}

// byEnd is the phase's samples in completion order.
func (p *phase) byEnd() []sample {
	sorted := append([]sample(nil), p.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	return sorted
}

// rateWindow is the span throughput is measured over: each stretch is cut
// into windows of about this length, and the phase reports the median
// window, so a disturbance skews one window instead of the whole run.
const rateWindow = time.Second

// perSecond is units completed per second: the median over windows of
// each window's rate in the steal-sampling periods quiet() keeps (units
// completed in them over their length), with the windows used and
// measured.
func (p *phase) perSecond(sm *stealMonitor) (v float64, used, of int) {
	type piece struct {
		w       window
		stretch int
		units   int
	}
	var pieces []piece
	for si, st := range p.stretches {
		for _, w := range sm.pieces(st) {
			pieces = append(pieces, piece{w: w, stretch: si})
		}
	}
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].w.start < pieces[j].w.start })
	for _, s := range p.samples {
		k := sort.Search(len(pieces), func(i int) bool { return pieces[i].w.end >= s.end })
		if k < len(pieces) && s.end > pieces[k].w.start {
			pieces[k].units += s.units
		}
	}
	shares := make([]float64, len(pieces))
	for i, pc := range pieces {
		shares[i] = sm.share(pc.w.start, pc.w.end)
	}
	keep := quiet(shares)
	type acc struct {
		units int
		dur   time.Duration
	}
	windows := map[[2]int]*acc{}
	for i, pc := range pieces {
		key := [2]int{pc.stretch, int((pc.w.start - p.stretches[pc.stretch].start) / rateWindow)}
		a := windows[key]
		if a == nil {
			a = &acc{}
			windows[key] = a
		}
		if keep[i] {
			a.units += pc.units
			a.dur += pc.w.end - pc.w.start
		}
	}
	var rates []float64
	for _, a := range windows {
		if a.dur > 0 {
			rates = append(rates, ratio(float64(a.units), a.dur.Seconds()))
		}
	}
	return median(rates), len(rates), len(windows)
}

// maxLatencyWindows bounds how many consecutive windows of requests the
// latency percentiles are read from. Fewer, larger windows put more
// samples beyond each window's p99; five still outvote two disturbed ones.
const maxLatencyWindows = 5

// percentile is the median over consecutive windows of requests, in
// completion order, of each window's q-quantile. Only the requests quiet()
// keeps count: a request whose sampling periods saw CPU steal is left out.
// It returns the requests used and measured. Windows hold at least 1000
// requests each; with fewer in all, the single window's own sample count
// decides whether q can be reported.
func (p *phase) percentile(sm *stealMonitor, q float64) (v quantile, measuredN int, err error) {
	sorted := p.byEnd()
	shares := make([]float64, len(sorted))
	for i, s := range sorted {
		shares[i] = sm.share(s.end-time.Duration(s.ms*float64(time.Millisecond)), s.end)
	}
	var kept []float64
	for i, ok := range quiet(shares) {
		if ok {
			kept = append(kept, sorted[i].ms)
		}
	}
	k := max(1, min(maxLatencyWindows, len(kept)/1000))
	var vals []float64
	for i := 0; i < k; i++ {
		w, err := percentile(kept[i*len(kept)/k:(i+1)*len(kept)/k], q)
		if err != nil {
			return quantile{N: len(kept)}, len(sorted), err
		}
		vals = append(vals, w.Value)
	}
	return quantile{Value: median(vals), N: len(kept)}, len(sorted), nil
}
