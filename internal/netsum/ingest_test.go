package netsum

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// TestCollectorPipelineStats drives the collector's write path over the
// wire and checks its accounting: every pushed update is counted, and a
// query on the same connection sees every batch sent before it with
// certified bounds.
func TestCollectorPipelineStats(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.MergeBased() {
		t.Fatal("default collector should maintain the merged view")
	}

	const agents, perAgent = 3, 1000
	var exact uint64
	for id := uint64(1); id <= agents; id++ {
		a, err := Dial(c.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		a.BatchSize = 128
		for i := 0; i < perAgent; i++ {
			if err := a.Record(42, 2); err != nil {
				t.Fatal(err)
			}
			exact += 2
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		// Query through the same connection: frames are applied in order,
		// so the interval covers every update this agent sent.
		est, mpe, err := a.Query(42)
		if err != nil {
			t.Fatal(err)
		}
		lo := sketch.CertifiedLowerBound(est, mpe)
		want := uint64(perAgent) * 2 * id
		if want < lo || want > est {
			t.Fatalf("after agent %d: interval [%d, %d] misses exact %d", id, lo, est, want)
		}
		a.Close()
	}

	_, updates, _ := c.Stats()
	if updates != agents*perAgent {
		t.Fatalf("collector counted %d updates, want %d", updates, agents*perAgent)
	}
}

// TestAgentZeroAttributed pins the Source mapping: agent ID 0 is a valid
// wire identity (WAL sources are agentID+1, so it is still attributed
// exactly), while the one unmappable ID is refused at hello.
func TestAgentZeroAttributed(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, err := Dial(c.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 100; i++ {
		if err := a.Record(5, 3); err != nil {
			t.Fatal(err)
		}
	}
	est, mpe, err := a.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if lo := sketch.CertifiedLowerBound(est, mpe); lo > 300 || est < 300 {
		t.Fatalf("agent 0 traffic lost: interval [%d, %d] misses 300", lo, est)
	}
	if agents, _, _ := c.Stats(); agents != 1 {
		t.Fatalf("agent 0 not registered: %d agents", agents)
	}

	reserved, err := Dial(c.Addr(), ^uint64(0))
	if err != nil {
		t.Fatal(err) // hello is written; the refusal surfaces on first read
	}
	defer reserved.Close()
	if _, _, err := reserved.Query(1); err == nil {
		t.Fatal("reserved agent id accepted")
	}
}

// TestCollectorRegisterMetrics drives two agents over the wire and checks
// the Prometheus surface: collector-wide counters match Stats, per-agent
// wire counters split the total exactly, and no ingest_* family appears
// (the collector has no write pipeline to describe).
func TestCollectorRegisterMetrics(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)

	perAgent := map[uint64]int{3: 100, 7: 250}
	for id, n := range perAgent {
		a, err := Dial(c.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := a.Record(uint64(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Query(1); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	_, updates, queries := c.Stats()
	for _, want := range []string{
		fmt.Sprintf("netsum_updates_total %d", updates),
		fmt.Sprintf("netsum_queries_total %d", queries),
		"netsum_agents 2",
		`netsum_agent_updates_total{agent="3"} 100`,
		`netsum_agent_updates_total{agent="7"} 250`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ingest_") {
		t.Errorf("exposition has ingest_* series:\n%s", out)
	}
}

// TestCloseWithIdleAgentConnected pins that Close does not wait for agents
// to hang up: a connected agent that sends nothing must not hold shutdown.
func TestCloseWithIdleAgentConnected(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", CollectorConfig{
		Spec: sketch.Spec{MemoryBytes: 1 << 16, Lambda: 25, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Dial(c.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, _, _, err := a.Stats(); err != nil { // the handler is running
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an idle agent connection")
	}
}
