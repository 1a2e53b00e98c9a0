// Command rscollector runs a network-wide measurement collector: agents
// (cmd/rsagent) stream key-value updates over TCP; the collector maintains
// one ReliableSketch per agent and answers global queries with certified
// error bounds.
//
// Usage:
//
//	rscollector -listen 127.0.0.1:7777 -lambda 25 -mem 1048576
//	rscollector -algo SS               # any error-bounded registry variant
//	rscollector -epoch 10s -window 8   # sliding-window (epoch ring) mode
//
// With a Mergeable variant (the default "Ours") the collector additionally
// maintains an incrementally merged global sketch and answers queries from
// the intersection of the merged view and the estimate-sum composition.
// With -epoch, each agent's state becomes an epoch ring retaining -window
// sealed epochs; agents may then issue sliding-window queries
// (rsagent -window).
//
// Each agent batch is applied in the connection handler that decoded it,
// so a query on the same connection covers every batch sent before it.
//
// The collector prints periodic ingest statistics to stdout; stop it with
// SIGINT or SIGTERM (in-flight HTTP requests get a bounded grace period).
// Agents may query through their own connections (rsagent -query), and
// -http additionally serves the rsserve HTTP/JSON query API (cached
// point/window/top-k queries) off the same collector. -metrics-addr serves
// GET /metrics (Prometheus text exposition over the collector and the WAL
// when attached); -pprof-addr serves net/http/pprof. Both are off unless
// set and live on their own listeners, away from the agent protocol port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/netsum"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
	"repro/internal/wal"
)

// HTTP server limits, matching rsserve: readHeaderTimeout bounds a slow
// client's request head (the Slowloris defence), idleTimeout reaps parked
// keep-alive connections, and shutdownGrace bounds how long a signal waits
// for in-flight -http requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// serveHTTP serves h on addr in the background with the limits above,
// exiting the process if the listener fails.
func serveHTTP(addr, what string, h http.Handler) *http.Server {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("rscollector: %s: %v", what, err)
		}
	}()
	return srv
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7777", "address to listen on")
		algo        = flag.String("algo", "Ours", "registered error-bounded sketch variant per agent")
		lambda      = flag.Uint64("lambda", 25, "per-agent error tolerance Λ")
		mem         = flag.Int("mem", 1<<20, "per-agent sketch memory (bytes)")
		seed        = flag.Uint64("seed", 1, "sketch hash seed")
		every       = flag.Duration("stats", 5*time.Second, "statistics print interval")
		ep          = flag.Duration("epoch", 0, "epoch length for sliding-window mode (0 = cumulative)")
		window      = flag.Int("window", 0, "sealed epochs retained per agent in -epoch mode (0 = default)")
		noMerge     = flag.Bool("no-merge", false, "disable the merged global view (estimate-sum only)")
		httpAdr     = flag.String("http", "", "also serve HTTP/JSON queries on this address (rsserve endpoints)")
		walDir      = flag.String("wal-dir", "", "write-ahead-log directory: acked agent batches survive a crash and replay on restart (cumulative mode)")
		walFsync    = flag.String("wal-fsync", "batch", "WAL durability: batch (fsync every append), a group-commit interval like 5ms, or off")
		walSegSize  = flag.Int64("wal-segment-size", wal.DefaultSegmentBytes, "WAL segment rotation threshold (bytes)")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text exposition) on this address (off unless set)")
		pprofAddr   = flag.String("pprof-addr", "", "also serve net/http/pprof on this address (off unless set)")
	)
	flag.Parse()

	var wlog *wal.Log
	if *walDir != "" {
		if *ep > 0 {
			log.Fatal("rscollector: -wal-dir is cumulative-mode only (replaying a log into an epoch ring would resurrect expired traffic)")
		}
		fp, err := wal.ParseFsync(*walFsync)
		if err != nil {
			log.Fatalf("rscollector: -wal-fsync: %v", err)
		}
		wlog, err = wal.Open(wal.Options{Dir: *walDir, SegmentBytes: *walSegSize, Fsync: fp, Logf: log.Printf})
		if err != nil {
			log.Fatalf("rscollector: %v", err)
		}
		defer wlog.Close()
	}
	// No -checkpoint flag here, so replay starts at the log's own watermark
	// (WALStartLSN 0); truncation needs the HTTP checkpoint surface
	// (rsserve -collector) or an external SnapshotGlobal driver.
	c, err := netsum.NewCollector(*listen, netsum.CollectorConfig{
		Algo:              *algo,
		Spec:              sketch.Spec{Lambda: *lambda, MemoryBytes: *mem, Seed: *seed},
		Epoch:             *ep,
		WindowEpochs:      *window,
		DisableMergedView: *noMerge,
		WAL:               wlog,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatalf("rscollector: %v", err)
	}
	mode := "estimate-sum aggregation"
	if c.MergeBased() {
		mode = "merge-based aggregation"
	}
	if *ep > 0 {
		mode = fmt.Sprintf("sliding-window mode (epoch=%v, window=%d)", *ep, *window)
	}
	fmt.Printf("rscollector listening on %s (%s, Λ=%d, %dB per agent, %s)\n",
		c.Addr(), *algo, *lambda, *mem, mode)

	if *metricsAddr != "" {
		// A dedicated scrape listener: the raw TCP collector has no HTTP
		// surface of its own, so Prometheus gets one regardless of -http.
		reg := telemetry.NewRegistry()
		c.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", telhttp.Handler(reg))
		serveHTTP(*metricsAddr, "metrics", mux)
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}
	if *pprofAddr != "" {
		serveHTTP(*pprofAddr, "pprof", telhttp.PprofHandler())
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	var api *http.Server
	if *httpAdr != "" {
		qs, err := queryd.New(queryd.CollectorBackend{C: c, Algo: *algo}, queryd.Config{Logf: log.Printf})
		if err != nil {
			log.Fatalf("rscollector: %v", err)
		}
		defer qs.Close()
		api = serveHTTP(*httpAdr, "http", qs.Handler())
		fmt.Printf("query API on http://%s (/v2/query batches, /v1/point /v1/window /v1/topk /v1/status)\n", *httpAdr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			agents, updates, queries := c.Stats()
			fmt.Printf("agents=%d updates=%d queries=%d\n", agents, updates, queries)
		case <-stop:
			fmt.Println("\nshutting down")
			if api != nil {
				// Let in-flight query requests finish; a client still busy
				// after the grace period is cut off.
				ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
				if err := api.Shutdown(ctx); err != nil {
					log.Printf("rscollector: http shutdown: %v", err)
					api.Close()
				}
				cancel()
			}
			if err := c.Close(); err != nil {
				log.Printf("rscollector: close: %v", err)
			}
			return
		}
	}
}
