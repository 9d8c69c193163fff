#!/usr/bin/env bash
# Serve smoke test: start the analyzer daemon on an ephemeral port with
# full telemetry enabled (structured NDJSON log, slow-request tracing,
# flight recorder), replay a mixed workload (fuzz-generated programs
# plus the Table-I suite) against it twice, and require that:
#   - the second pass is answered from the content-addressed solve
#     cache with bit-identical bounds;
#   - every line of the daemon's request log parses as JSON;
#   - the Prometheus exposition scraped via the `metrics` op passes
#     obs::prometheusLint (cinderella-replay --metrics-out exits 1
#     otherwise) and carries the serve counters;
#   - the flight-recorder dump is valid JSON and saw the workload;
#   - the second pass's hits came from the request memo: the scrape's
#     memo-hit counter and the dump's cache hits that skipped the front
#     end each reach the second pass's hit count;
#   - each analyze request looked the memo up exactly once: the scrape's
#     memo hits plus misses equal the requests the replay got answered.
# Finishes with the shutdown handshake and checks the daemon exits
# cleanly.  Used locally and by the `serve-smoke` CI job so the
# workload and gates live in exactly one place; telemetry outputs land
# in serve-smoke-out/ (uploaded as a CI artifact on failure).
#
# usage: scripts/serve_smoke.sh [path-to-cinderella-serve] [path-to-cinderella-replay]
set -euo pipefail

SERVE="${1:-./build/src/tools/cinderella-serve}"
REPLAY="${2:-./build/src/tools/cinderella-replay}"

for bin in "$SERVE" "$REPLAY"; do
  if [[ ! -x "$bin" ]]; then
    echo "serve_smoke: binary not found at $bin" >&2
    echo "build it with: cmake --build build -j --target cinderella-serve cinderella-replay" >&2
    exit 1
  fi
done

OUT_DIR="serve-smoke-out"
mkdir -p "$OUT_DIR"
LOG="$OUT_DIR/daemon.out"
REQUEST_LOG="$OUT_DIR/requests.ndjson"
METRICS="$OUT_DIR/metrics.prom"
FLIGHT="$OUT_DIR/flightrecorder.json"
LATENCY="$OUT_DIR/latency.json"
SNAPSHOT="$(mktemp -u).csnap"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SNAPSHOT" "$SNAPSHOT.journal"' EXIT
# The daemon appends to its request log, so an earlier run's lines would
# count toward this run's gates; start both telemetry files empty.
rm -f "$REQUEST_LOG" "$FLIGHT"

# Ephemeral port: the daemon announces the one it picked on stdout.
# --slow-ms 1 arms slow-request tracing for most cold solves, so the
# log exercises the embedded span-tree records too.
"$SERVE" --port 0 --jobs 2 --cache-snapshot "$SNAPSHOT" \
  --log-out "$REQUEST_LOG" --log-level info --slow-ms 1 \
  --flight-out "$FLIGHT" > "$LOG" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG" | head -1)"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "serve_smoke: daemon did not announce a port; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "serve_smoke: daemon up on port $PORT"

# Readiness: the raw-HTTP /healthz twin answers 200 "ready" while the
# daemon accepts work (it flips to 503 "draining" once a drain begins).
python3 - "$PORT" <<'PY'
import socket, sys
port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=5)
s.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
data = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    data += chunk
if b"200 OK" not in data or b"ready" not in data:
    sys.exit(f"serve_smoke: /healthz not ready: {data!r}")
print("serve_smoke: /healthz ready")
PY

# Two passes over ~25 inputs (= ~50 requests).  The replay tool exits 2
# if any repeated input returns a different bound, and 1 if the second
# pass's cache hit rate leaves the overall rate below the gate.  The
# same invocation scrapes the metrics op into $METRICS (exiting 1 when
# the scrape fails obs::prometheusLint) and reports client-observed
# latency percentiles per pass.
"$REPLAY" --port "$PORT" --generate 12 --seed 20260807 --benchmarks \
  --repeat 2 --min-hit-rate 0.45 --latency-json --metrics-out "$METRICS" \
  --shutdown | tee "$LATENCY"

# The shutdown handshake must let the daemon exit cleanly (status 0).
if ! wait "$SERVE_PID"; then
  echo "serve_smoke: daemon exited non-zero; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
trap 'rm -f "$SNAPSHOT" "$SNAPSHOT.journal"' EXIT

if [[ ! -s "$SNAPSHOT" ]]; then
  echo "serve_smoke: daemon did not write its cache snapshot" >&2
  exit 1
fi

# --- Telemetry gates -------------------------------------------------

# Every request-log line is one valid JSON object.
if [[ ! -s "$REQUEST_LOG" ]]; then
  echo "serve_smoke: daemon wrote no request log" >&2
  exit 1
fi
python3 - "$REQUEST_LOG" <<'PY'
import json, sys
path = sys.argv[1]
events = {}
with open(path) as f:
    for n, line in enumerate(f, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"serve_smoke: {path}:{n}: invalid JSON: {e}")
        for key in ("ts", "level", "event"):
            if key not in record:
                sys.exit(f"serve_smoke: {path}:{n}: missing '{key}'")
        events[record["event"]] = events.get(record["event"], 0) + 1
if events.get("request", 0) < 50:
    sys.exit(f"serve_smoke: expected >=50 request records, got {events}")
if events.get("slow-request", 0) < 1:
    sys.exit(f"serve_smoke: no slow-request record despite --slow-ms 1: {events}")
print(f"serve_smoke: request log ok ({events})")
PY

# The Prometheus scrape saw the workload (the replay tool already
# linted it: a malformed scrape makes it exit 1, which stops this script).
if [[ ! -s "$METRICS" ]]; then
  echo "serve_smoke: replay did not scrape the metrics op" >&2
  exit 1
fi
for series in cinderella_serve_requests_total \
              cinderella_serve_request_micros_bucket \
              cinderella_serve_stage_solve_micros_count \
              cinderella_cache_bound_entries; do
  if ! grep -q "^$series" "$METRICS"; then
    echo "serve_smoke: metrics scrape is missing $series" >&2
    exit 1
  fi
done
echo "serve_smoke: metrics scrape ok ($(grep -c '^cinderella_' "$METRICS") samples)"

# The shutdown-time flight-recorder dump is valid JSON covering the run.
if [[ ! -s "$FLIGHT" ]]; then
  echo "serve_smoke: daemon did not write its flight-recorder dump" >&2
  exit 1
fi
python3 - "$FLIGHT" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    dump = json.load(f)
if dump.get("recorded", 0) < 50:
    sys.exit(f"serve_smoke: flight recorder saw {dump.get('recorded')} requests, expected >=50")
if not dump.get("records"):
    sys.exit("serve_smoke: flight-recorder dump has no records")
ops = {r.get("op") for r in dump["records"]}
if "analyze" not in ops:
    sys.exit(f"serve_smoke: no analyze records in the flight recorder: {ops}")
print(f"serve_smoke: flight recorder ok ({dump['recorded']} recorded, {len(dump['records'])} retained)")
PY

# The second pass repeats the first request for request, so each of its
# hits should be a request-memo hit: the counter covers them, and as
# many flight records are cache hits that never entered the front end.
# A first-pass hit on a shared digest still runs the front end, so the
# records are counted, not all required to skip it.  A request looks
# the memo up once, so hits plus misses equal the analyze requests: a
# miss looked up again on its way to the solver would count twice.
python3 - "$LATENCY" "$METRICS" "$FLIGHT" <<'PY'
import json, re, sys
latency_path, metrics_path, flight_path = sys.argv[1:4]
with open(latency_path) as f:
    summary = json.loads([l for l in f if l.startswith("{")][-1])
second = summary["passes"][1]["cacheHits"]
with open(metrics_path) as f:
    scrape = f.read()
def counter(name):
    m = re.search(rf"^{name} (\d+)$", scrape, re.M)
    if m is None:
        sys.exit(f"serve_smoke: metrics scrape has no {name}")
    return int(m.group(1))
memo_hits = counter("cinderella_cache_request_hits_total")
memo_misses = counter("cinderella_cache_request_misses_total")
if memo_hits + memo_misses != summary["requests"]:
    sys.exit(f"serve_smoke: {memo_hits} memo hits + {memo_misses} memo misses "
             f"!= {summary['requests']} analyze requests answered")
if memo_hits < second:
    sys.exit(f"serve_smoke: {memo_hits} request-memo hits < {second} second-pass hits")
with open(flight_path) as f:
    records = json.load(f)["records"]
skipped = sum(1 for r in records if r.get("op") == "analyze" and
              r.get("cacheHit") and "frontend" not in r.get("stages", {}))
if skipped < second:
    sys.exit(f"serve_smoke: {skipped} cache-hit records skipped the front end, "
             f"< {second} second-pass hits")
print(f"serve_smoke: request memo ok ({memo_hits} memo hits + {memo_misses} "
      f"misses = {summary['requests']} requests, {skipped} front-end-free "
      f"hit records, {second} second-pass hits)")
PY

# --- Drain flow ------------------------------------------------------
# A second daemon, shut down via the graceful-drain handshake instead of
# the shutdown op: the replay client sends {"op":"drain"}, the daemon
# finishes in-flight work, writes its snapshot, and exits with the
# drain-specific code 5.
DRAIN_LOG="$OUT_DIR/drain-daemon.out"
DRAIN_SNAPSHOT="$(mktemp -u).csnap"
"$SERVE" --port 0 --jobs 2 --cache-snapshot "$DRAIN_SNAPSHOT" \
  --drain-timeout-ms 30000 > "$DRAIN_LOG" &
DRAIN_PID=$!
trap 'kill "$DRAIN_PID" 2>/dev/null || true; \
  rm -f "$SNAPSHOT" "$SNAPSHOT.journal" "$DRAIN_SNAPSHOT" "$DRAIN_SNAPSHOT.journal"' EXIT

DRAIN_PORT=""
for _ in $(seq 1 50); do
  DRAIN_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$DRAIN_LOG" | head -1)"
  [[ -n "$DRAIN_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$DRAIN_PORT" ]]; then
  echo "serve_smoke: drain daemon did not announce a port; log:" >&2
  cat "$DRAIN_LOG" >&2
  exit 1
fi

"$REPLAY" --port "$DRAIN_PORT" --generate 2 --seed 7 --drain

set +e
wait "$DRAIN_PID"
DRAIN_EXIT=$?
set -e
if [[ "$DRAIN_EXIT" -ne 5 ]]; then
  echo "serve_smoke: expected drain exit code 5, got $DRAIN_EXIT; log:" >&2
  cat "$DRAIN_LOG" >&2
  exit 1
fi
if [[ ! -s "$DRAIN_SNAPSHOT" ]]; then
  echo "serve_smoke: drained daemon did not write its cache snapshot" >&2
  exit 1
fi
echo "serve_smoke: drain flow ok (exit 5, snapshot $(wc -c < "$DRAIN_SNAPSHOT") bytes)"

echo "serve_smoke: ok (cache snapshot $(wc -c < "$SNAPSHOT") bytes)"
