package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one Prometheus text exposition, keyed by the series exactly as
// printed: the metric name plus its label set, e.g.
// `ingest_flushes_total{reason="barrier"}` or
// `queryd_request_duration_seconds_sum{endpoint="/v2/query"}`.
type scrape map[string]float64

// parseScrape reads the text exposition format: comment lines are skipped,
// and every other line is `series value` with an optional timestamp.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the series ends at the closing
		// brace when there is one.
		cut := strings.IndexByte(text, ' ')
		if brace := strings.LastIndexByte(text, '}'); brace >= 0 {
			cut = brace + 1
		}
		if cut <= 0 || cut >= len(text) {
			return nil, fmt.Errorf("scrape line %d: no value in %q", line, text)
		}
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("scrape line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape line %d: %w", line, err)
		}
		out[text[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading scrape: %w", err)
	}
	return out, nil
}

// delta is after − before per series. A series absent from before counts
// from 0 (a counter born mid-run), and one absent from after is dropped: a
// counter a later build no longer exports reads as 0, not as an error.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumPrefix adds every series whose name (before any labels) is name: the
// total of a labelled family.
func (s scrape) sumPrefix(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
