// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can archive benchmark runs as
// artifacts (BENCH_ingest.json, BENCH_wal.json, BENCH_cache.json) and the
// performance trajectory of the hot paths is recorded run over run
// instead of scrolling away in logs. Custom b.ReportMetric units (the cache
// suite's "hitrate" and "ops/run") are carried through in a per-benchmark
// metrics map.
//
// Usage:
//
//	go test -run '^$' -bench 'InsertBatch' -benchmem . |
//	    go run ./internal/tools/benchjson > BENCH_ingest.json
//
// With -compare it is also the perf-regression gate: the fresh run is
// diffed against a committed baseline document and the process exits
// nonzero when any benchmark's ns/op regresses by more than -threshold
// percent, or (with -allocs) when its allocs/op exceeds the baseline at
// all — allocations are deterministic, so any growth is a real regression,
// not noise. A benchmark carrying a "hitrate" metric is likewise gated:
// hit rate is deterministic for a fixed trace, so any drop beyond rounding
// is an eviction-policy regression. The fresh JSON is still written to
// stdout so one invocation both gates and refreshes the artifact:
//
//	go test -run '^$' -bench ... -benchmem . |
//	    go run ./internal/tools/benchjson -compare BENCH_ingest.json -threshold 10 -allocs > fresh.json
//
// Per-op times are per ITEM for the ingestion benchmarks, so the emitted
// mitems_per_sec compare directly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// MItemsPerSec is 1e3/NsPerOp: meaningful for benchmarks whose op is
	// one item (the ingestion suite), reported for all.
	MItemsPerSec float64 `json:"mitems_per_sec"`
	BytesPerOp   *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp  *int64  `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units ("hitrate", "ops/run", ...)
	// keyed by unit name. A "hitrate" metric is gated: it is deterministic
	// for a fixed trace, so a drop beyond rounding is a policy regression.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Output is the whole document.
type Output struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON document to gate against; exit 1 on regression")
	threshold := flag.Float64("threshold", 10, "max tolerated ns/op regression in percent (with -compare)")
	gateAllocs := flag.Bool("allocs", false, "with -compare, also fail if allocs/op exceeds the baseline")
	match := flag.String("match", "", "regexp restricting which benchmarks the gate compares (default: all)")
	flag.Parse()

	out := Output{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			out.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("benchjson: %v", err)
	}
	out.Benchmarks = aggregate(out.Benchmarks)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatalf("benchjson: %v", err)
	}

	if *compare != "" {
		if !gate(out, *compare, *threshold, *gateAllocs, *match) {
			os.Exit(1)
		}
	}
}

// aggregate folds repeated runs of the same benchmark (-count=N) into its
// best observation: scheduler and frequency noise only ever add time, so
// the minimum ns/op is the stable statistic to record and to gate on.
// First-seen order is preserved; allocs/op come from the kept (fastest)
// run — they are deterministic across runs.
func aggregate(bs []Benchmark) []Benchmark {
	idx := make(map[string]int, len(bs))
	out := bs[:0]
	for _, b := range bs {
		name := trimCPUSuffix(b.Name)
		if j, ok := idx[name]; ok {
			if b.NsPerOp < out[j].NsPerOp {
				out[j] = b
			}
			continue
		}
		idx[name] = len(out)
		out = append(out, b)
	}
	return out
}

// gate diffs the fresh run against the committed baseline document and
// reports per-benchmark deltas on stderr. It returns false when any
// compared benchmark regresses beyond the tolerances. Benchmarks present
// on only one side are reported but never fail the gate: renames and suite
// growth go through a baseline refresh, not a red build.
func gate(fresh Output, baselinePath string, threshold float64, gateAllocs bool, match string) bool {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("benchjson: -compare: %v", err)
	}
	var base Output
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("benchjson: -compare %s: %v", baselinePath, err)
	}
	var re *regexp.Regexp
	if match != "" {
		re, err = regexp.Compile(match)
		if err != nil {
			fatalf("benchjson: -match: %v", err)
		}
	}
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[trimCPUSuffix(b.Name)] = b
	}

	ok := true
	compared := 0
	fmt.Fprintf(os.Stderr, "perf gate vs %s (threshold %+.0f%% ns/op", baselinePath, threshold)
	if gateAllocs {
		fmt.Fprint(os.Stderr, ", allocs/op must not grow")
	}
	fmt.Fprintln(os.Stderr, ")")
	for _, b := range fresh.Benchmarks {
		name := trimCPUSuffix(b.Name)
		if re != nil && !re.MatchString(name) {
			continue
		}
		o, found := old[name]
		if !found {
			fmt.Fprintf(os.Stderr, "  new  %-52s %10.2f ns/op (no baseline entry)\n", name, b.NsPerOp)
			continue
		}
		delete(old, name)
		compared++
		delta := 100 * (b.NsPerOp - o.NsPerOp) / o.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "  %-4s %-52s %10.2f -> %8.2f ns/op  %+6.1f%%\n",
			verdict, name, o.NsPerOp, b.NsPerOp, delta)
		if gateAllocs && o.AllocsPerOp != nil && b.AllocsPerOp != nil && *b.AllocsPerOp > *o.AllocsPerOp {
			ok = false
			fmt.Fprintf(os.Stderr, "  FAIL %-52s %10d -> %8d allocs/op\n",
				name, *o.AllocsPerOp, *b.AllocsPerOp)
		}
		// Hit rate is deterministic for a fixed trace: allow only rounding
		// slack, any larger drop means the eviction policy got worse.
		if oh, hasOld := o.Metrics["hitrate"]; hasOld {
			if bh, hasNew := b.Metrics["hitrate"]; hasNew && bh < oh-0.005 {
				ok = false
				fmt.Fprintf(os.Stderr, "  FAIL %-52s %10.4f -> %8.4f hitrate\n",
					name, oh, bh)
			}
		}
	}
	for name := range old {
		if re != nil && !re.MatchString(name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "  gone %-52s (in baseline, not in this run)\n", name)
	}
	if compared == 0 {
		// An empty comparison would pass vacuously — a broken -bench regexp
		// or a renamed suite must not masquerade as a green gate.
		fmt.Fprintln(os.Stderr, "benchjson: gate compared 0 benchmarks")
		return false
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: performance regression detected")
	}
	return ok
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// trimCPUSuffix drops go's -GOMAXPROCS name suffix ("...-8").
func trimCPUSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseLine reads one result line: name, iterations, then unit-tagged
// value pairs ("123 ns/op", "45 B/op", "6 allocs/op").
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			if v > 0 {
				b.MItemsPerSec = round3(1e3 / v)
			}
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, false
	}
	return b, true
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
