// Command perfbench is the end-to-end serving benchmark for rsserve. It
// starts the rsserve binary with every flag at its default except the
// listen address, drives it over loopback HTTP from this one process with
// at most two keep-alive connections, checks every certified interval
// against exact counts, and prints each metric by name and unit with its
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records client spans, /metrics deltas and an in-process layer
// replay, prints the per-layer table, and reports the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloads = []string{"ingest", "query-zipf", "mixed"}

// Where run.sh puts the rsserve binary, and where a traced run writes its
// spans, relative to the checkout root the benchmark runs from.
const (
	serverBin = ".bench_build/rsserve"
	spansDir  = ".bench_build/trace"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives byte-identical requests")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer breakdown instead of end-to-end metrics")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if _, err := os.Stat(serverBin); err != nil {
		fatal(fmt.Errorf("rsserve binary: %w", err))
	}

	t0 := time.Now()
	b := &bench{
		workload: *workload,
		in:       buildInputs(*seed, streamItems),
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		tr:       tracer{origin: time.Now()},
	}
	fmt.Printf("inputs: %d items in %d ingest batches, %d distinct keys, built in %.2fs\n",
		len(b.in.items), len(b.in.ingest), len(b.in.oracle.keys), time.Since(t0).Seconds())

	b.steal = startStealMonitor(b.tr.origin)
	ms, err := b.run()
	b.stopAll()
	b.steal.close()
	fmt.Printf("cpu steal: %.2f%% of the machine's CPU time during the run\n", 100*b.steal.share(0, time.Since(b.tr.origin)))
	if err != nil {
		fatal(err)
	}
	printConfig(b, ms, *seed)
	out := map[string]jsonMetric{}
	e2e, err := endToEnd(ms, b.steal)
	if err != nil && !b.trace {
		fatal(err)
	}
	for _, m := range e2e {
		m.print()
		if !b.trace {
			out[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	// The p99s are printed beside the metrics, not gated: on the 2-vCPU
	// shared machine the benchmark was written on, their run-to-run spread
	// exceeded the widest bound a metric may have (25% of the median).
	for _, t := range []struct {
		name string
		p    *phase
	}{{"ingest_p99_ms", &ms.ingest}, {"query_p99_ms", &ms.query}} {
		if v, _, err := t.p.percentile(b.steal, 0.99); err == nil {
			fmt.Printf("ungated %s = %.6g ms (n=%d)\n", t.name, v.Value, v.N)
		}
	}
	fmt.Printf("error_rate = %.6g (failed %d of %d operations; %d keys outside their certified interval)\n",
		ratio(float64(ms.total.failed), float64(ms.total.attempted)), ms.total.failed, ms.total.attempted, ms.total.badKeys)
	fmt.Printf("query replies that served cached keys: %d of %d\n", ms.query.cachedOps, len(ms.query.samples))

	if b.trace {
		lt, err := b.replay()
		if err != nil {
			fatal(err)
		}
		layers := perLayer(b, ms, lt)
		for _, m := range layers {
			m.print()
			out[m.Name] = jsonMetric{m.Value, m.Unit}
		}
		printTable(b, ms, lt, layers)
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, *seed))
		if err := writeSpans(path, append(ms.spans, lt.spans...)); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(ms.spans)+len(lt.spans), path)
	}

	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{ms.total.failed == 0, ms.total.attempted, ms.total.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports err and exits without printing a result line.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported figure with the samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Of    string // what the samples are
}

func (m metric) print() {
	fmt.Printf("metric %s = %.6g %s (n=%d %s)\n", m.Name, m.Value, m.Unit, m.N, m.Of)
}

// endToEnd derives the user-visible metrics. A percentile with too few
// samples beyond it is an error, not a number.
func endToEnd(ms *measure, sm *stealMonitor) ([]metric, error) {
	var out []metric
	var errs []string
	rate := func(name, unit string, p *phase, of string) {
		v, used, windows := p.perSecond(sm)
		out = append(out, metric{name, v, unit, len(p.samples), fmt.Sprintf("%s; median of %d of %d 1 s windows", of, used, windows)})
	}
	pct := func(name string, p *phase, q float64, of string) {
		v, all, err := p.percentile(sm, q)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", name, err))
		}
		out = append(out, metric{name, v.Value, "ms", v.N, fmt.Sprintf("%s, of %d; requests during CPU steal left out", of, all)})
	}
	rate("ingest_items_per_s", "items/s", &ms.ingest, "512-item batches")
	pct("ingest_p50_ms", &ms.ingest, 0.50, "512-item batches")
	pct("ingest_p90_ms", &ms.ingest, 0.90, "512-item batches")
	rate("query_keys_per_s", "keys/s", &ms.query, "64-key batches")
	pct("query_p50_ms", &ms.query, 0.50, "64-key batches")
	pct("query_p90_ms", &ms.query, 0.90, "64-key batches")
	out = append(out,
		metric{"width_mean", median(ms.widths), "count", len(ms.widths), "end-of-pass checks of every distinct key"},
		metric{"rss_mb", median(ms.rss), "MiB", len(ms.rss), "servers"},
		metric{"setup_s", median(ms.setup), "s", len(ms.setup), "set-ups"},
	)
	if len(errs) > 0 {
		return out, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return out, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printConfig records the effective configuration beside the numbers, so
// a default changed later shows in the report.
func printConfig(b *bench, ms *measure, seed uint64) {
	workers := "absent"
	if ms.haveWorkerGauge {
		workers = fmt.Sprint(ms.ingestWorkers)
	}
	fmt.Printf("config: workload=%s seed=%d seconds=%v trace=%v mode=%q algo=%s cache_policy=%s cache_shards=%d ingest_workers=%s\n",
		b.workload, seed, b.seconds.Seconds(), b.trace, ms.cfg.Backend.Mode, ms.cfg.Backend.Algo,
		ms.cfg.Cache.Policy, ms.cfg.Cache.Shards, workers)
	fmt.Printf("env: go=%s cpu=%q nproc=%d\n", runtime.Version(), cpuModel(), runtime.NumCPU())
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
