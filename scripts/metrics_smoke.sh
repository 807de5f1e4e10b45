#!/bin/sh
# Live metrics smoke: start decwi-gammagen with the observability server
# on an ephemeral port, scrape /metrics and /healthz while it lingers,
# and validate the exposition (HELP/TYPE headers, cumulative-bucket
# monotonicity, at least one counter/gauge/histogram family) with the
# in-repo checker — no external scraper needed.
set -eu

cd "$(dirname "$0")/.."

METRICS_TMP=$(mktemp -d)
GAMMAGEN_PID=""
cleanup() {
    [ -n "$GAMMAGEN_PID" ] && kill "$GAMMAGEN_PID" 2>/dev/null || true
    rm -rf "$METRICS_TMP"
}
trap cleanup EXIT

go build -o "$METRICS_TMP/decwi-gammagen" ./cmd/decwi-gammagen
go build -o "$METRICS_TMP/decwi-promcheck" ./cmd/decwi-promcheck

"$METRICS_TMP/decwi-gammagen" -n 200000 -validate=false \
    -http 127.0.0.1:0 -http-linger 20s -out "$METRICS_TMP/out.f32" \
    2> "$METRICS_TMP/gammagen.log" &
GAMMAGEN_PID=$!

# The server binds before the run starts and announces its resolved
# ephemeral address on stderr; poll the log until it appears.
METRICS_URL=""
for _ in $(seq 1 100); do
    METRICS_URL=$(sed -n 's#.*metrics on \(http://[^ ]*/metrics\).*#\1#p' "$METRICS_TMP/gammagen.log")
    [ -n "$METRICS_URL" ] && break
    sleep 0.1
done
if [ -z "$METRICS_URL" ]; then
    echo "metrics smoke: server address never appeared in gammagen log" >&2
    cat "$METRICS_TMP/gammagen.log" >&2
    exit 1
fi

"$METRICS_TMP/decwi-promcheck" -url "$METRICS_URL" \
    -min-counters 3 -min-gauges 1 -min-histograms 1
HEALTH_URL=$(printf '%s' "$METRICS_URL" | sed 's#/metrics$#/healthz#')
"$METRICS_TMP/decwi-promcheck" -url "$HEALTH_URL" -healthz
SNAPSHOT_URL=$(printf '%s' "$METRICS_URL" | sed 's#/metrics$#/snapshot#')
"$METRICS_TMP/decwi-promcheck" -url "$SNAPSHOT_URL" -snapshot \
    -min-counters 3 -min-gauges 1 -min-histograms 1

echo "metrics smoke: OK"
