// Command rsagent replays a binary trace file (cmd/rsgen's format) to a
// collector (cmd/rscollector) as a measurement agent, then optionally
// queries keys with certified global bounds.
//
// Usage:
//
//	rsgen -dataset ip -items 1000000 -out ip.bin
//	rsagent -collector 127.0.0.1:7777 -id 1 -trace ip.bin
//	rsagent -collector 127.0.0.1:7777 -id 2 -query 12345
//	rsagent -collector 127.0.0.1:7777 -query 12345,777,42 -window 4
//	rsagent -collector "" -trace ip.bin -algo Ours -mem 262144 -query 12345
//	rsagent -collector "" -trace ip.bin -algo Ours -epoch 10s -window 3 -query 12345
//
// -query takes one key or a comma-separated batch; a batch travels as a
// single typed request (one wire round trip, answered under one collector
// snapshot per agent) through the unified query plane, and the local
// shadow answers through the sketch's native batch path.
//
// With -algo, the agent also maintains a local shadow sketch built from the
// registry (fed through the batch-ingestion path), so queries report the
// local view next to the collector's global certified interval. With
// -collector "" the agent runs offline on the shadow sketch alone.
//
// With -epoch, the shadow sketch becomes an epoch ring: the trace is
// replayed as -window+1 simulated epochs of that length, and -query answers
// over the sliding window of the last -window sealed epochs. Against an
// epoch-mode collector, -window n issues a network window query too.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/epoch"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
)

// parseKeys splits the -query flag's comma-separated key list.
func parseKeys(csv string) ([]uint64, error) {
	var keys []uint64
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-query key %q: %w", part, err)
		}
		keys = append(keys, k)
	}
	if len(keys) > query.MaxBatchKeys {
		return nil, fmt.Errorf("-query batch of %d keys exceeds the plane-wide limit %d",
			len(keys), query.MaxBatchKeys)
	}
	return keys, nil
}

func main() {
	var (
		collector = flag.String("collector", "127.0.0.1:7777", "collector address (empty = offline, shadow sketch only)")
		id        = flag.Uint64("id", 1, "agent identity")
		trace     = flag.String("trace", "", "binary trace file to replay")
		queryCSV  = flag.String("query", "", "key, or comma-separated key batch, to query after replay")
		batch     = flag.Int("batch", 512, "updates per network frame")
		algo      = flag.String("algo", "", "registry variant for a local shadow sketch (empty = none)")
		lambda    = flag.Uint64("lambda", 25, "shadow sketch error tolerance Λ")
		mem       = flag.Int("mem", 1<<20, "shadow sketch memory (bytes)")
		seed      = flag.Uint64("seed", 1, "shadow sketch hash seed")
		ep        = flag.Duration("epoch", 0, "simulated epoch length for the shadow sketch (0 = cumulative)")
		window    = flag.Int("window", 0, "sliding-window size in epochs for -query (0 = cumulative)")
	)
	flag.Parse()

	if *batch < 1 {
		log.Fatalf("rsagent: -batch must be ≥ 1, got %d", *batch)
	}

	queryKeys, err := parseKeys(*queryCSV)
	if err != nil {
		log.Fatalf("rsagent: %v", err)
	}

	spec := sketch.Spec{Lambda: *lambda, MemoryBytes: *mem, Seed: *seed}
	var shadow sketch.Sketch
	var ring *epoch.Ring
	advanceEpoch := func() {}
	if *algo != "" {
		entry, ok := sketch.Lookup(*algo)
		if !ok {
			log.Fatalf("rsagent: unknown algorithm %q", *algo)
		}
		if *ep > 0 {
			capacity := *window
			if capacity <= 0 {
				capacity = epoch.DefaultCapacity
			}
			// Replay has no timestamps; simulate capacity+1 equal epochs so
			// the requested window is fully populated with sealed traffic.
			var simNow time.Time
			ring = epoch.NewRing(entry.Factory(spec), *mem, *ep, capacity,
				func() time.Time { return simNow })
			advanceEpoch = func() { simNow = simNow.Add(*ep) }
		} else {
			shadow = entry.Build(spec)
		}
	}
	if *collector == "" && shadow == nil && ring == nil {
		log.Fatal("rsagent: offline mode (-collector \"\") needs a shadow sketch (-algo)")
	}

	var a *netsum.Agent
	if *collector != "" {
		var err error
		a, err = netsum.Dial(*collector, *id)
		if err != nil {
			log.Fatalf("rsagent: %v", err)
		}
		defer a.Close()
		a.BatchSize = *batch
	}

	if *trace != "" {
		s, err := stream.ReadFile(*trace)
		if err != nil {
			log.Fatalf("rsagent: %v", err)
		}
		if a != nil {
			start := time.Now()
			for _, it := range s.Items {
				if err := a.Record(it.Key, it.Value); err != nil {
					log.Fatalf("rsagent: record: %v", err)
				}
			}
			if err := a.Flush(); err != nil {
				log.Fatalf("rsagent: flush: %v", err)
			}
			elapsed := time.Since(start)
			fmt.Printf("replayed %d items in %v (%.2f Mpps)\n",
				s.Len(), elapsed.Round(time.Millisecond),
				float64(s.Len())/elapsed.Seconds()/1e6)
		}
		if shadow != nil {
			localStart := time.Now()
			sketch.InsertBatch(shadow, s.Items)
			fmt.Printf("shadow %s ingested locally in %v (%dB)\n",
				shadow.Name(), time.Since(localStart).Round(time.Millisecond), shadow.MemoryBytes())
		}
		if ring != nil {
			localStart := time.Now()
			epochs := ring.Capacity() + 1
			per := (s.Len() + epochs - 1) / epochs
			fed := 0
			for lo := 0; lo < s.Len(); lo += per {
				hi := lo + per
				if hi > s.Len() {
					hi = s.Len()
				}
				ring.InsertBatch(s.Items[lo:hi])
				advanceEpoch()
				fed++
			}
			ring.Insert(0, 0) // seal the final simulated epoch
			fmt.Printf("shadow %s ingested %d simulated epochs in %v (%dB, %d sealed)\n",
				ring.Name(), fed, time.Since(localStart).Round(time.Millisecond),
				ring.MemoryBytes(), ring.Sealed())
		}
	}

	if len(queryKeys) > 0 {
		req := query.Request{Kind: query.Point, Keys: queryKeys}
		if *window > 0 {
			req = query.Request{Kind: query.Window, Keys: queryKeys, Window: *window}
		}
		if a != nil {
			start := time.Now()
			ans, err := a.Execute(req)
			if err != nil {
				log.Fatalf("rsagent: query: %v", err)
			}
			elapsed := time.Since(start)
			scope := "global"
			if *window > 0 {
				scope = fmt.Sprintf("%d-epoch window (covered %d)", *window, ans.Coverage)
			}
			fmt.Printf("%d keys in one round trip (%v, %s, source %s):\n",
				len(ans.PerKey), elapsed.Round(time.Microsecond), scope, ans.Source)
			for _, e := range ans.PerKey {
				fmt.Printf("  key %d: estimate=%d, certified interval [%d, %d]\n",
					e.Key, e.Est, e.Lower, e.Upper)
			}
		}
		if shadow != nil {
			est := make([]uint64, len(queryKeys))
			var mpe []uint64
			if _, ok := shadow.(sketch.ErrorBounded); ok {
				mpe = make([]uint64, len(queryKeys))
			}
			sketch.QueryBatch(shadow, queryKeys, est, mpe)
			for i, k := range queryKeys {
				if mpe != nil {
					fmt.Printf("  key %d: local shadow estimate=%d, interval [%d, %d]\n",
						k, est[i], sketch.CertifiedLowerBound(est[i], mpe[i]), est[i])
				} else {
					fmt.Printf("  key %d: local shadow estimate=%d\n", k, est[i])
				}
			}
		}
		if ring != nil {
			n := *window
			if n <= 0 {
				n = ring.Capacity()
			}
			ans, err := ring.Execute(query.Request{Kind: query.Window, Keys: queryKeys, Window: n})
			if err != nil {
				log.Fatalf("rsagent: shadow ring query: %v", err)
			}
			for _, e := range ans.PerKey {
				fmt.Printf("  key %d: local %d-epoch window estimate=%d, interval [%d, %d]\n",
					e.Key, ans.Coverage, e.Est, e.Lower, e.Upper)
			}
		}
	}

	if a != nil {
		agents, updates, queries, err := a.Stats()
		if err != nil {
			log.Fatalf("rsagent: stats: %v", err)
		}
		fmt.Printf("collector: %d agents, %d updates, %d queries\n", agents, updates, queries)
	}
}
