#!/usr/bin/env sh
# End-to-end smoke of the filterd planning daemon: start it on a local
# port, plan testdata/webquery8.json over HTTP, and require the objective
# value to match the filterplan CLI on the same instance and options.
# The daemon's /metrics must count the cache hit and the registered
# instance. No dependencies beyond a POSIX shell, awk and curl (JSON is
# picked apart with sed so CI images without jq work too).
set -eu

PORT="${FILTERD_PORT:-18321}"
MODEL=inorder
BIN="$(mktemp -d)"
FILTERD_PID=
trap 'kill "$FILTERD_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/filterd" ./cmd/filterd
go build -o "$BIN/filterplan" ./cmd/filterplan

"$BIN/filterd" -addr "127.0.0.1:$PORT" -workers 1 &
FILTERD_PID=$!

# metric NAME: one family off the daemon's /metrics, summed over its
# label sets (NAME may pin some). Absent reads 0.
metric() {
    curl -sf "http://127.0.0.1:$PORT/metrics" | awk -v n="$1" '
        index($0, n) == 1 && substr($0, length(n) + 1) ~ /^[ {]/ { s += $NF }
        END { printf "%d\n", s }'
}

# Wait for the daemon to accept requests.
i=0
until curl -sf "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smoke-filterd: daemon did not come up on port $PORT" >&2
        exit 1
    fi
    sleep 0.2
done

HTTP_VALUE=$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" \
    -d "{\"instance\": $(cat testdata/webquery8.json), \"model\": \"$MODEL\", \"objective\": \"period\"}" \
    | sed -n 's/.*"value": "\([^"]*\)".*/\1/p' | head -1)

# -canon makes the CLI solve the same canonical instance the service does
# (required for heuristic methods, whose plans depend on the index order).
CLI_VALUE=$("$BIN/filterplan" -canon -in testdata/webquery8.json -model "$MODEL" -objective period \
    | sed -n 's/^period = \([^ ]*\) .*/\1/p' | head -1)

# A repeated request must be served from cache.
OUTCOME=$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" \
    -d "{\"instance\": $(cat testdata/webquery8.json), \"model\": \"$MODEL\", \"objective\": \"period\"}" \
    | sed -n 's/.*"outcome": "\([^"]*\)".*/\1/p' | head -1)

HITS=$(metric filterd_plancache_hits_total)
REGISTERED=$(metric filterd_registered_instances)

echo "smoke-filterd: HTTP value=$HTTP_VALUE CLI value=$CLI_VALUE repeat outcome=$OUTCOME hits=$HITS registered=$REGISTERED"
[ -n "$HTTP_VALUE" ] || { echo "smoke-filterd: empty HTTP value" >&2; exit 1; }
[ "$HTTP_VALUE" = "$CLI_VALUE" ] || { echo "smoke-filterd: HTTP and CLI disagree" >&2; exit 1; }
[ "$OUTCOME" = "hit" ] || { echo "smoke-filterd: repeat request was not a cache hit" >&2; exit 1; }
[ "$HITS" = 1 ] && [ "$REGISTERED" = 1 ] || { echo "smoke-filterd: /metrics does not count the hit and the instance" >&2; exit 1; }
echo "smoke-filterd: OK"
