#!/usr/bin/env bash
# End-to-end cluster smoke, proven through the real binaries and HTTP:
#
# Part 1 (bit-compatibility): the same zipf workload flows into a single
# CM_acc node and into a 3-replica cluster through the router; after one
# replication sweep, a 256-key /v2/query batch must come back IDENTICAL
# from both — CM merges are linear, so scatter-gather over merged views is
# not allowed to change a single bit of any estimate.
#
# Part 2 (coverage honesty): acked writes flow through the router into an
# "Ours" cluster; after replication the routed answer is certified with
# full key coverage and every certified interval contains the acked truth.
# Then one replica is SIGKILLed. The router must keep answering HTTP 200 —
# but with key_coverage < 1 and certified:false, and without ever
# underestimating an acked count (survivor merged views still hold the
# dead replica's delta). A router that certified, errored, or silently
# returned full coverage here would be lying about a degraded cluster.
#
# Requires: go, curl, python3 (JSON assertions). Run from anywhere.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

PORT0="${RSSERVE_SMOKE_PORT:-18180}"
addr() { echo "127.0.0.1:$((PORT0 + $1))"; }

echo "== build rsserve + rsgen"
go build -o "$WORK/rsserve" ./cmd/rsserve
go build -o "$WORK/rsgen" ./cmd/rsgen

# start_node LOGNAME ARGS... — boot one rsserve, record its PID, wait for
# /v1/status. The listen address must be in ARGS.
start_node() {
  local log=$1 base=""
  shift
  for a in "$@"; do
    case "$prev_arg" in -listen) base="http://$a" ;; esac
    prev_arg="$a"
  done
  "$WORK/rsserve" "$@" >>"$WORK/$log.log" 2>&1 &
  PIDS+=($!)
  disown $! # SIGKILL is part of the test; keep bash from reporting it
  for _ in $(seq 1 50); do
    if curl -fsS "$base/v1/status" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "rsserve ($log) did not come up; log follows" >&2
  cat "$WORK/$log.log" >&2
  exit 1
}
prev_arg=""

# replicate BASE — trigger one pull sweep on a replica and print how many
# peers yielded a new delta.
replicate() {
  curl -fsS -X POST "$1/v2/replicate" | python3 -c 'import json,sys
print(json.load(sys.stdin)["peers_pulled"])'
}

###############################################################################
echo
echo "=== part 1: 3-replica CM_acc cluster is bit-compatible with a single node"
###############################################################################

R1="$(addr 1)" R2="$(addr 2)" R3="$(addr 3)"
PEERS="http://$R1,http://$R2,http://$R3"
SINGLE="http://$(addr 0)"
ROUTER="http://$(addr 4)"
CM_FLAGS=(-algo CM_acc -mem $((64 << 10)) -seed 7 -cache-ttl 1ms)

start_node single -listen "$(addr 0)" "${CM_FLAGS[@]}"
for r in "$R1" "$R2" "$R3"; do
  start_node "replica-${r##*:}" -listen "$r" -peers "$PEERS" -self "http://$r" "${CM_FLAGS[@]}"
done
start_node router -listen "$(addr 4)" -cluster-router -peers "$PEERS" -algo CM_acc -cache-ttl 1ms

echo "== same zipf workload into the single node and through the router"
for target in "$SINGLE" "$ROUTER"; do
  "$WORK/rsgen" -dist zipf -skew 1.2 -distinct 800 -items 30000 -seed 7 \
    -ingest "$target" -batch 2000 | tee "$WORK/rsgen.out" | tail -1
  grep -q "(30000 accepted, 0 dropped)" "$WORK/rsgen.out" ||
    { echo "routed ingest was not fully acked" >&2; exit 1; }
done

echo "== one replication sweep on every replica (each must pull 2 peers)"
for r in "$R1" "$R2" "$R3"; do
  pulled=$(replicate "http://$r")
  echo "replica $r pulled $pulled"
  [ "$pulled" = "2" ] || { echo "expected 2 peer deltas" >&2; exit 1; }
done

echo "== 256-key batch: routed answer must equal the single node's, bit for bit"
BATCH=$(python3 -c 'import json; print(json.dumps({"kind": "point", "keys": list(range(1, 257))}))')
curl -fsS -X POST --data "$BATCH" "$SINGLE/v2/query" >"$WORK/single.json"
curl -fsS -X POST --data "$BATCH" "$ROUTER/v2/query" >"$WORK/routed.json"
python3 - "$WORK/single.json" "$WORK/routed.json" <<'EOF'
import json, sys
single = json.load(open(sys.argv[1]))
routed = json.load(open(sys.argv[2]))
assert routed["key_coverage"] == 1, f"healthy cluster key_coverage {routed['key_coverage']}"
assert len(single["per_key"]) == len(routed["per_key"]) == 256
for s, r in zip(single["per_key"], routed["per_key"]):
    assert s == r, f"cluster diverged from single node: {s} vs {r}"
print(f"256 keys bit-identical (source={routed['source']}, coverage={routed['key_coverage']})")
EOF

for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done
PIDS=()

###############################################################################
echo
echo "=== part 2: killing a replica degrades coverage, never certifies a lie"
###############################################################################

OURS_FLAGS=(-algo Ours -mem $((1 << 20)) -seed 5 -cache-ttl 1ms)
start_node replica2-1 -listen "$R1" -peers "$PEERS" -self "http://$R1" "${OURS_FLAGS[@]}"
REPLICA1_PID="${PIDS[-1]}"
start_node replica2-2 -listen "$R2" -peers "$PEERS" -self "http://$R2" "${OURS_FLAGS[@]}"
start_node replica2-3 -listen "$R3" -peers "$PEERS" -self "http://$R3" "${OURS_FLAGS[@]}"
start_node router2 -listen "$(addr 4)" -cluster-router -peers "$PEERS" -algo Ours -cache-ttl 1ms

echo "== acked ingest through the router: key k appears 10*k times, k=1..64"
python3 -c 'import json
items = [{"key": k, "value": 1} for k in range(1, 65) for _ in range(10 * k)]
print(json.dumps({"items": items}))' >"$WORK/ingest.json"
curl -fsS -X POST --data "@$WORK/ingest.json" "$ROUTER/v2/ingest" | python3 -c 'import json,sys
ack = json.load(sys.stdin)
want = sum(10 * k for k in range(1, 65))
assert ack["accepted"] == want and ack["dropped"] == 0, f"ack {ack}, want {want} accepted"
print("acked", ack["accepted"], "items, 0 dropped")'

for r in "$R1" "$R2" "$R3"; do
  echo "replica $r pulled $(replicate "http://$r")"
done

BATCH=$(python3 -c 'import json; print(json.dumps({"kind": "point", "keys": list(range(1, 65))}))')
echo "== healthy cluster: certified, full coverage, intervals contain acked truth"
curl -fsS -X POST --data "$BATCH" "$ROUTER/v2/query" >"$WORK/healthy.json"
python3 - "$WORK/healthy.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["certified"], f"healthy cluster uncertified: {r}"
assert r["key_coverage"] == 1, f"healthy cluster key_coverage {r['key_coverage']}"
for e in r["per_key"]:
    truth = 10 * e["key"]
    assert e["lower"] <= truth <= e["upper"], \
        f"key {e['key']}: certified [{e['lower']}, {e['upper']}] misses acked truth {truth}"
print("64 certified intervals all contain the acked truth")
EOF

echo "== SIGKILL replica $R1 (pid $REPLICA1_PID)"
kill -9 "$REPLICA1_PID"
wait "$REPLICA1_PID" 2>/dev/null || true
sleep 0.3

echo "== degraded cluster: HTTP 200, reduced coverage, uncertified, no underestimates"
curl -fsS -X POST --data "$BATCH" "$ROUTER/v2/query" >"$WORK/degraded.json"
python3 - "$WORK/degraded.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert not r["certified"], "router CERTIFIED an answer with a replica down"
cov = r.get("key_coverage", 0)
assert 0 < cov < 1, f"key_coverage {cov} with 1 of 3 replicas down, want in (0, 1)"
for e in r["per_key"]:
    truth = 10 * e["key"]
    assert e["est"] >= truth, \
        f"key {e['key']}: degraded estimate {e['est']} under acked truth {truth} — fallback lost acked writes"
print(f"degraded answer honest: certified=false, key_coverage={cov:.4f}, no acked write lost")
EOF

echo "== router /metrics tells the same story (cluster_* family)"
curl -fsS "$ROUTER/metrics" >"$WORK/metrics.txt"
python3 - "$WORK/metrics.txt" <<'EOF'
import sys
series = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    series[name] = float(value)
def total(prefix):
    return sum(v for k, v in series.items() if k.split("{")[0] == prefix)
for required in ("cluster_router_queries_total", "cluster_router_ingested_total",
                 "cluster_ring_replicas", "cluster_ring_vnodes",
                 "cluster_fanout_duration_seconds_count"):
    assert any(k.split("{")[0] == required for k in series), f"/metrics missing {required}"
assert series["cluster_ring_replicas"] == 3, f"cluster_ring_replicas {series['cluster_ring_replicas']}"
assert total("cluster_fanout_duration_seconds_count") > 0, "no fan-outs recorded"
assert total("cluster_replica_errors_total") > 0, "dead replica produced no error counts"
print("metrics:", " ".join(f"{p}={total(p):g}" for p in (
    "cluster_router_queries_total", "cluster_replica_errors_total",
    "cluster_replica_fallbacks_total", "cluster_ring_replicas")))
EOF

echo
echo "cluster smoke: OK"
