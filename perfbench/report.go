package main

import (
	"fmt"
	"runtime"
)

// handlerMs is the server's mean handler time for one endpoint over the
// timed phase, from the queryd_request_duration_seconds histogram.
func handlerMs(m scrape, ep string) (float64, float64) {
	sum := m[fmt.Sprintf("queryd_request_duration_seconds_sum{endpoint=%q}", ep)]
	n := m[fmt.Sprintf("queryd_request_duration_seconds_count{endpoint=%q}", ep)]
	return ratio(sum*1e3, n), n
}

func (b *bench) mainEp() string {
	if b.workload == "ingest" {
		return epIngest
	}
	return epQuery
}

// perLayer derives the per-layer metrics from the three sources: the
// binary's /metrics deltas over the timed phase (M), the in-process layer
// replay (R), and the client spans (C).
func perLayer(b *bench, ms *measure, lt *layerTimes) []metric {
	m := ms.m
	ep := b.mainEp()
	rtt := mean(ms.traced)
	hMain, _ := handlerMs(m, ep)
	hQuery, nQuery := handlerMs(m, epQuery)
	hIngest, nIngest := handlerMs(m, epIngest)
	hits, misses := m["queryd_cache_hits_total"], m["queryd_cache_misses_total"]
	folds := m["ingest_folds_total"]
	us := func(d float64, n int) float64 { return ratio(d/1e3, float64(n)) }
	ns := func(d float64, n int) float64 { return ratio(d, float64(n)) }
	return []metric{
		{"http.rtt_ms", rtt, "ms", len(ms.traced), "traced " + ep + " requests (C)"},
		{"http.transport_ms", rtt - hMain, "ms", len(ms.traced), "RTT minus server handler mean (C, M)"},
		{"queryd.handler_ms.query", hQuery, "ms", int(nQuery), "/v2/query requests (M)"},
		{"queryd.handler_ms.ingest", hIngest, "ms", int(nIngest), "/v2/ingest requests (M)"},
		{"queryd.self_us_per_key", us(float64(lt.handlerQuery-lt.backendExec), lt.queryKeys), "us", lt.queryKeys, "replayed keys (R)"},
		{"queryd.self_ns_per_item", ns(float64(lt.handlerIngest-lt.backendIngest), lt.ingestItems), "ns", lt.ingestItems, "replayed items (R)"},
		{"queryd.allocs_per_req", lt.mainAllocs, "count", lt.ingestReqs + lt.queryReqs, "replayed requests (R)"},
		{"rcache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits + misses), "key lookups (M)"},
		{"rcache.evictions", m["queryd_cache_evictions_total"], "count", int(hits + misses), "key lookups (M)"},
		{"rcache.ns_per_key", ns(float64(lt.cache), lt.cacheKeys), "ns", lt.cacheKeys, "replayed keys (R)"},
		{"ingest.folds", folds, "count", int(folds), "folds (M)"},
		{"ingest.items_per_fold", ratio(m["ingest_folded_items_total"], folds), "count", int(folds), "folds (M)"},
		{"ingest.fold_ms", ratio(m["ingest_fold_duration_seconds_sum"]*1e3, m["ingest_fold_duration_seconds_count"]), "ms", int(m["ingest_fold_duration_seconds_count"]), "folds (M)"},
		{"ingest.barrier_fold_share", ratio(m[`ingest_flushes_total{reason="barrier"}`], m.sumPrefix("ingest_flushes_total")), "ratio", int(m.sumPrefix("ingest_flushes_total")), "flushes (M)"},
		{"ingest.queue_depth_max", ms.queueDepthMax, "count", 0, "gauge samples every 50 ms (M)"},
		{"backend.queries_per_req", ratio(m["queryd_backend_queries_total"], nQuery), "ratio", int(nQuery), "/v2/query requests (M)"},
		{"backend.execute_us_per_key", us(float64(lt.backendExec), lt.execKeys), "us", lt.execKeys, "keys executed (R)"},
		{"backend.ingest_ns_per_item", ns(float64(lt.backendIngest), lt.ingestItems), "ns", lt.ingestItems, "replayed items (R)"},
		{"sketch.insert_ns_per_item", ns(float64(lt.sketchInsert), lt.sketchItems), "ns", lt.sketchItems, "replayed items (R)"},
		{"sketch.query_ns_per_key", ns(float64(lt.sketchQuery), lt.sketchKeys), "ns", lt.sketchKeys, "replayed keys (R)"},
		{"core.insertion_failures", float64(lt.insertionFailures), "count", lt.sketchItems, "replayed items (R)"},
		{"server.cpu_ms_per_op", ratio(ms.serverCPU*1e3, float64(ms.ops)), "ms", ms.ops, "timed-phase requests (/proc)"},
		{"gen.cpu_share", ratio(ms.genCPU, ms.wall.Seconds()*float64(runtime.NumCPU())), "ratio", ms.ops, "timed-phase requests (rusage)"},
		{"trace.overhead_ms", rtt - mean(ms.plain), "ms", len(ms.plain), "untraced " + ep + " requests (C)"},
	}
}

// printTable prints the per-layer breakdown: one row per layer with its
// self time, work count and ratio, and the end-to-end metric it should
// move on which workload, plus the tracing overhead.
func printTable(b *bench, ms *measure, lt *layerTimes, layers []metric) {
	v := map[string]metric{}
	for _, m := range layers {
		v[m.Name] = m
	}
	f := func(name string) float64 { return v[name].Value }
	fmt.Printf("\nPer-layer breakdown (%s, traced run):\n\n", b.workload)
	fmt.Println("| layer | self time | count | ratio | should move | on |")
	fmt.Println("|---|---|---|---|---|---|")
	row := func(cols ...any) {
		fmt.Printf("| %s | %s | %s | %s | %s | %s |\n", cols...)
	}
	row("http (net/http + loopback)",
		fmt.Sprintf("%.3f ms/req transport", f("http.transport_ms")),
		fmt.Sprintf("%d req", len(ms.traced)),
		fmt.Sprintf("rtt %.3f ms", f("http.rtt_ms")),
		"query_p50_ms", "query-zipf")
	row("queryd",
		fmt.Sprintf("%.3f µs/key, %.1f ns/item", f("queryd.self_us_per_key"), f("queryd.self_ns_per_item")),
		fmt.Sprintf("%d req", lt.queryReqs+lt.ingestReqs),
		fmt.Sprintf("%.1f allocs/req; handler %.3f ms/query, %.3f ms/ingest", f("queryd.allocs_per_req"), f("queryd.handler_ms.query"), f("queryd.handler_ms.ingest")),
		"query_keys_per_s; ingest_items_per_s", "query-zipf; ingest")
	row("rcache",
		fmt.Sprintf("%.1f ns/key", f("rcache.ns_per_key")),
		fmt.Sprintf("%d keys", lt.cacheKeys),
		fmt.Sprintf("hit %.3f, %.0f evictions", f("rcache.hit_ratio"), f("rcache.evictions")),
		"query_keys_per_s", "query-zipf (no change on ingest)")
	row("ingest (pipeline)",
		fmt.Sprintf("%.3f ms/fold", f("ingest.fold_ms")),
		fmt.Sprintf("%.0f folds", f("ingest.folds")),
		fmt.Sprintf("%.0f items/fold, barrier share %.3f, queue max %.0f", f("ingest.items_per_fold"), f("ingest.barrier_fold_share"), f("ingest.queue_depth_max")),
		"query_p50_ms, ingest_items_per_s; width_mean", "mixed; ingest")
	row("backend (SketchBackend)",
		fmt.Sprintf("%.3f µs/key, %.1f ns/item", f("backend.execute_us_per_key"), f("backend.ingest_ns_per_item")),
		fmt.Sprintf("%d Execute", lt.execCalls),
		fmt.Sprintf("%.3f queries/req", f("backend.queries_per_req")),
		"query_keys_per_s", "mixed")
	row("sketch / core",
		fmt.Sprintf("%.1f ns/item, %.1f ns/key", f("sketch.insert_ns_per_item"), f("sketch.query_ns_per_key")),
		fmt.Sprintf("%d items", lt.sketchItems),
		fmt.Sprintf("%.0f insertion failures", f("core.insertion_failures")),
		"ingest_items_per_s; error_rate", "ingest; all")
	row("processes",
		fmt.Sprintf("server %.4f ms/op", f("server.cpu_ms_per_op")),
		fmt.Sprintf("%d ops", ms.ops),
		fmt.Sprintf("generator CPU share %.3f", f("gen.cpu_share")),
		"(generator- vs server-bound)", "all")
	row("tracing overhead",
		fmt.Sprintf("%+.4f ms/req", f("trace.overhead_ms")),
		fmt.Sprintf("%d traced, %d untraced", len(ms.traced), len(ms.plain)),
		fmt.Sprintf("untraced rtt %.3f ms", mean(ms.plain)),
		"—", "—")
	fmt.Println()
}
