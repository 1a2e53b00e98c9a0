package queryd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
)

// failingBackend answers every Execute with a fixed error, to pin the
// error-envelope status mapping.
type failingBackend struct{ err error }

func (b failingBackend) Execute(query.Request) (query.Answer, error) { return query.Answer{}, b.err }
func (b failingBackend) Generation() uint64                          { return 0 }
func (b failingBackend) Epochal() bool                               { return false }
func (b failingBackend) Status() queryd.Status                       { return queryd.Status{Mode: "failing"} }

func execStatus(t *testing.T, base string) (int, queryd.ErrorBody) {
	t.Helper()
	body, _ := json.Marshal(query.Request{Kind: query.Point, Keys: []uint64{1}})
	resp, err := http.Post(base+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb queryd.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return resp.StatusCode, eb
}

// TestExecErrorEnvelopeDistinguishes503From500 pins the contract the
// cluster router routes on: a transient refusal (query.ErrUnavailable) is
// 503 "retry elsewhere" and does not collapse into the generic 501.
func TestExecErrorEnvelopeDistinguishes503From500(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"transient", fmt.Errorf("merged view: %w", query.ErrUnavailable), http.StatusServiceUnavailable, "unavailable"},
		{"unsupported", errors.New("no such capability"), http.StatusNotImplemented, "unsupported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := queryd.New(failingBackend{err: tc.err}, queryd.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			status, eb := execStatus(t, ts.URL)
			if status != tc.wantStatus || eb.Error.Code != tc.wantCode {
				t.Fatalf("%v mapped to %d %q, want %d %q", tc.err, status, eb.Error.Code, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

func TestDeltaEndpointServesAndSkipsUnchanged(t *testing.T) {
	spec := sketch.Spec{MemoryBytes: 64 << 10, Lambda: 25, Seed: 4}
	_, ts, b := newStandaloneServer(t, queryd.Config{Algo: "CM_acc", Spec: spec})
	insertItems(t, ts.URL, map[uint64]uint64{7: 40, 8: 2})

	resp, err := http.Get(ts.URL + "/v2/delta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/delta: status %d", resp.StatusCode)
	}
	algo, gotSpec, ver, payload, err := queryd.ReadDeltaHeader(resp.Body)
	if err != nil {
		t.Fatalf("decoding delta header: %v", err)
	}
	if algo != "CM_acc" || gotSpec != spec {
		t.Fatalf("delta header algo=%q spec=%+v, want CM_acc %+v", algo, gotSpec, spec)
	}
	if want := b.DeltaVersion(); ver != want {
		t.Fatalf("delta version %d, want backend's %d", ver, want)
	}
	restored := sketch.MustBuild("CM_acc", spec)
	if err := restored.(sketch.Snapshotter).Restore(payload); err != nil {
		t.Fatalf("restoring delta payload: %v", err)
	}
	if got := restored.Query(7); got != 40 {
		t.Fatalf("restored delta estimates key 7 at %d, want 40", got)
	}

	// Same version back → 304, no body re-serialized.
	resp2, err := http.Get(fmt.Sprintf("%s/v2/delta?after=%d", ts.URL, ver))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("unchanged delta answered %d, want 304", resp2.StatusCode)
	}

	// New writes move the version → 200 again.
	insertItems(t, ts.URL, map[uint64]uint64{9: 1})
	resp3, err := http.Get(fmt.Sprintf("%s/v2/delta?after=%d", ts.URL, ver))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("moved delta answered %d, want 200", resp3.StatusCode)
	}
}

func TestDeltaHeaderRefusesWrongMagic(t *testing.T) {
	_, _, _, _, err := queryd.ReadDeltaHeader(bytes.NewReader([]byte("RQC2xxxxxxxx")))
	if !errors.Is(err, sketch.ErrSnapshotMismatch) {
		t.Fatalf("checkpoint magic offered as delta: %v, want sketch.ErrSnapshotMismatch", err)
	}
}
