package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseGoldenScrape(t *testing.T) {
	f, err := os.Open("testdata/scrape.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseScrape(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`ingest_flushes_total{reason="barrier"}`:                      5,
		`ingest_flushes_total{reason="size"}`:                         12,
		`ingest_fold_duration_seconds_sum`:                            0.08512765,
		`ingest_fold_duration_seconds_count`:                          20,
		`ingest_fold_duration_seconds_bucket{le="+Inf"}`:              20,
		`queryd_request_duration_seconds_sum{endpoint="/v2/query"}`:   0.0325,
		`queryd_request_duration_seconds_count{endpoint="/v2/query"}`: 100,
		`queryd_request_duration_seconds_sum{endpoint="/v2/ingest"}`:  0.15,
		`ingest_workers`: 2,
	}
	for k, v := range want {
		if got, ok := s[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if got := s.sumPrefix("ingest_flushes_total"); got != 20 {
		t.Errorf("all flushes = %v, want 20", got)
	}
	// _sum and _count are other names: a family prefix does not match them.
	if got := s.sumPrefix("ingest_fold_duration_seconds"); got != 0 {
		t.Errorf("sumPrefix matched suffixed names: %v", got)
	}
	ms, n := handlerMs(s, epQuery)
	if n != 100 || ms < 0.3249 || ms > 0.3251 {
		t.Errorf("query handler mean = %v ms over %v, want 0.325 over 100", ms, n)
	}
}

func TestScrapeDelta(t *testing.T) {
	before, err := parseScrape(strings.NewReader("a_total 5\nb{x=\"1 2\"} 1\ngone 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader("# c\na_total 8\nb{x=\"1 2\"} 4 1700000000\nnew_total 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if d["a_total"] != 3 || d[`b{x="1 2"}`] != 3 || d["new_total"] != 2 {
		t.Errorf("delta = %v", d)
	}
	if _, ok := d["gone"]; ok {
		t.Errorf("a series missing after counts as 0 and is dropped: %v", d)
	}
	if _, err := parseScrape(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
