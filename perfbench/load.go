package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the generator's connection budget: one per CPU of the 2-vCPU
// machine the benchmark was written for.
const conns = 2

// batchItems is the item count of ingest batch j.
func (in *inputs) batchItems(j int) int {
	return min(ingestBatch, len(in.items)-j*ingestBatch)
}

// runWorkers runs body on conns closed-loop callers at once, waits for
// all of them, and returns what they measured.
func (b *bench) runWorkers(hc *http.Client, base string, trace bool, body func(i int, w *worker)) phase {
	ws := make([]*worker, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ws {
		ws[i] = newWorker(hc, base, &b.tr, trace)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i, ws[i])
		}()
	}
	wg.Wait()
	return measured(&b.tr, start, ws...)
}

// ingestPass posts one pass of the stream over conns connections and
// reports which batches were acked.
func (b *bench) ingestPass(hc *http.Client, base string, trace bool) (phase, []bool) {
	in := b.in
	acked := make([]bool, len(in.ingest))
	var next atomic.Int64
	p := b.runWorkers(hc, base, trace, func(_ int, w *worker) {
		for j := int(next.Add(1) - 1); j < len(in.ingest); j = int(next.Add(1) - 1) {
			acked[j] = w.ingest(in.ingest[j], in.batchItems(j))
		}
	})
	return p, acked
}

// zipfQueries runs conns closed-loop callers over the popularity-drawn
// batches until the deadline, against a server whose state no longer
// changes: every certified interval must contain the exact count, which
// lies in [lo[id], hi[id]] (equal unless a preload batch failed).
func (b *bench) zipfQueries(hc *http.Client, base string, until time.Time, trace bool, lo, hi []uint64) phase {
	bodies := b.in.zipf
	var next atomic.Int64
	return b.runWorkers(hc, base, trace, func(_ int, w *worker) {
		for time.Now().Before(until) {
			q := bodies[int(next.Add(1)-1)%len(bodies)]
			if w.query(q) {
				w.checkAnswer(func(i int) (uint64, uint64) { return lo[q.ids[i]], hi[q.ids[i]] })
			}
		}
	})
}

// mixedLoad runs one writer and one reader side by side until the
// deadline. The writer continues the stream loop after the preloaded pass;
// the reader cycles through a shuffled order of every distinct key. A
// reader's certified upper bound must cover what was acked before its
// query was sent (or, for a reply that served cached keys, what was acked
// before this phase began), and its lower bound may not exceed what was
// posted by the time the reply arrived.
//
// The writer's n-th batch is batch from+n of the loop after the preload, so
// a second call continues where the first stopped. It returns how many
// batches it posted and how many of those form the acked prefix.
func (b *bench) mixedLoad(hc *http.Client, base string, from int, until time.Time, trace, preloaded bool) (ing, qry phase, posted, ackedN int) {
	in, o := b.in, b.in.oracle
	nb := len(in.ingest)
	g := nb + from               // global batch index of this phase's first batch
	var sent, acked atomic.Int64 // batches posted / acked in this phase
	writer, reader := newWorker(hc, base, &b.tr, trace), newWorker(hc, base, &b.tr, trace)
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	var writerEnd time.Time
	go func() {
		defer wg.Done()
		for n := 0; time.Now().Before(until); n++ {
			sent.Store(int64(n + 1))
			j := (from + n) % nb
			if !writer.ingest(in.ingest[j], in.batchItems(j)) {
				break // the acked prefix stays exact; stop extending it
			}
			acked.Store(int64(n + 1))
		}
		writerEnd = time.Now()
	}()
	go func() {
		defer wg.Done()
		for j := 0; time.Now().Before(until); j++ {
			q := in.uniform[j%len(in.uniform)]
			before := int(acked.Load())
			if !reader.query(q) {
				continue
			}
			after := int(sent.Load())
			cached := reader.ans.CachedKeys > 0
			reader.checkAnswer(func(i int) (uint64, uint64) {
				id := q.ids[i]
				lo := o.prefixCount(id, g+before)
				if cached {
					lo = o.total[id]
				}
				if !preloaded {
					lo = 0
				}
				return lo, o.prefixCount(id, g+after)
			})
		}
	}()
	wg.Wait()
	ing = measured(&b.tr, start, writer)
	ing.stretches[0].end = writerEnd.Sub(b.tr.origin)
	qry = measured(&b.tr, start, reader)
	return ing, qry, int(sent.Load()), int(acked.Load())
}

// verify queries every distinct key over conns connections on an idle
// server and checks each certified interval against [lo[id], hi[id]].
// With fresh set, a reply that served cached keys is retried until it is
// computed from current state (cached answers may predate the last
// writes). It returns the mean certified width upper − lower.
func (b *bench) verify(hc *http.Client, base string, lo, hi []uint64, fresh bool) (phase, float64) {
	sweep := b.in.sweep
	var next atomic.Int64
	widths := make([]float64, conns)
	p := b.runWorkers(hc, base, false, func(wi int, w *worker) {
		for j := int(next.Add(1) - 1); j < len(sweep); j = int(next.Add(1) - 1) {
			q := sweep[j]
			ok := w.query(q)
			for try := 0; ok && fresh && w.ans.CachedKeys > 0 && try < 500; try++ {
				time.Sleep(20 * time.Millisecond)
				ok = w.query(q)
			}
			if !ok {
				continue
			}
			w.checkAnswer(func(i int) (uint64, uint64) { return lo[q.ids[i]], hi[q.ids[i]] })
			for _, e := range w.ans.PerKey {
				if e.Upper >= e.Lower {
					widths[wi] += float64(e.Upper - e.Lower)
				}
			}
		}
	})
	var total float64
	for _, v := range widths {
		total += v
	}
	return p, total / float64(len(b.in.oracle.keys))
}
