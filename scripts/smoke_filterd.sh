#!/usr/bin/env sh
# End-to-end smoke of the filterd planning daemon and the CLIs beside it:
# start the daemon on a local port with a plan store, JSON warn-level logs
# and a private pprof listener; plan testdata/webquery8.json and a
# filtergen instance over HTTP, and require each objective value to match
# the filterplan CLI on the same instance and options. The daemon's
# /metrics must count the cache hit and the registered instance. Then
# restart the daemon on the same store: the repeat request must be a hit
# with the same value, served from the store. The CLI steps check that
# `filterplan -method auto` reports the same branch-and-bound search as
# `-method bnb`, and that replaying the Figure 1 schedule completes one
# data set per period λ. No dependencies beyond a POSIX shell, awk and
# curl (JSON is picked apart with sed so CI images without jq work too).
set -eu

PORT="${FILTERD_PORT:-18321}"
DEBUG_PORT=$((PORT + 1))
MODEL=inorder
BIN="$(mktemp -d)"
FILTERD_PID=
trap 'kill "$FILTERD_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/filterd" ./cmd/filterd
go build -o "$BIN/filterplan" ./cmd/filterplan
go build -o "$BIN/filtergen" ./cmd/filtergen

"$BIN/filterd" -version | grep -q '^filterd ' || { echo "smoke-filterd: -version does not print 'filterd '" >&2; exit 1; }

# start_daemon: filterd on $PORT with the plan store in $BIN/store; its log
# lines go to $BIN/filterd.log.
start_daemon() {
    "$BIN/filterd" -addr "127.0.0.1:$PORT" -workers 1 -data-dir "$BIN/store" \
        -log-format json -log-level warn -debug-addr "127.0.0.1:$DEBUG_PORT" 2>>"$BIN/filterd.log" &
    FILTERD_PID=$!
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
}

# metric NAME: one family off the daemon's /metrics, summed over its
# label sets (NAME may pin some). Absent reads 0.
metric() {
    curl -sf "http://127.0.0.1:$PORT/metrics" | awk -v n="$1" '
        index($0, n) == 1 && substr($0, length(n) + 1) ~ /^[ {]/ { s += $NF }
        END { printf "%d\n", s }'
}

# field NAME FILE: the first string value of a JSON field.
field() {
    sed -n "s/.*\"$1\": \"\([^\"]*\)\".*/\1/p" "$2" | head -1
}

# cli_value FILE: the filterplan objective value on FILE. -canon makes the
# CLI solve the same canonical instance the service does (required for
# heuristic methods, whose plans depend on the index order).
cli_value() {
    "$BIN/filterplan" -canon -in "$1" -model "$MODEL" -objective period \
        | sed -n 's/^period = \([^ ]*\) .*/\1/p' | head -1
}

start_daemon

REQUEST="{\"instance\": $(cat testdata/webquery8.json), \"model\": \"$MODEL\", \"objective\": \"period\"}"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" -d "$REQUEST" >"$BIN/first.json"
HTTP_VALUE=$(field value "$BIN/first.json")
HASH=$(field hash "$BIN/first.json")
CLI_VALUE=$(cli_value testdata/webquery8.json)

# A repeated request must be served from cache.
curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" -d "$REQUEST" >"$BIN/repeat.json"
OUTCOME=$(field outcome "$BIN/repeat.json")

HITS=$(metric filterd_plancache_hits_total)
REGISTERED=$(metric filterd_registered_instances)

echo "smoke-filterd: HTTP value=$HTTP_VALUE CLI value=$CLI_VALUE repeat outcome=$OUTCOME hits=$HITS registered=$REGISTERED"
[ -n "$HTTP_VALUE" ] || { echo "smoke-filterd: empty HTTP value" >&2; exit 1; }
[ "$HTTP_VALUE" = "$CLI_VALUE" ] || { echo "smoke-filterd: HTTP and CLI disagree" >&2; exit 1; }
[ "$OUTCOME" = "hit" ] || { echo "smoke-filterd: repeat request was not a cache hit" >&2; exit 1; }
[ "$HITS" = 1 ] && [ "$REGISTERED" = 1 ] || { echo "smoke-filterd: /metrics does not count the hit and the instance" >&2; exit 1; }

# A generated instance with precedence constraints: daemon == CLI.
"$BIN/filtergen" -n 7 -seed 3 -profile mixed -prec 0.3 -o "$BIN/gen7.json"
GEN_VALUE=$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" \
    -d "{\"instance\": $(cat "$BIN/gen7.json"), \"model\": \"$MODEL\", \"objective\": \"period\"}" \
    | sed -n 's/.*"value": "\([^"]*\)".*/\1/p' | head -1)
GEN_CLI=$(cli_value "$BIN/gen7.json")
echo "smoke-filterd: filtergen instance HTTP value=$GEN_VALUE CLI value=$GEN_CLI"
[ -n "$GEN_VALUE" ] && [ "$GEN_VALUE" = "$GEN_CLI" ] || { echo "smoke-filterd: HTTP and CLI disagree on the generated instance" >&2; exit 1; }

# The private debug listener serves pprof.
curl -sf "http://127.0.0.1:$DEBUG_PORT/debug/pprof/cmdline" | tr '\0' ' ' | grep -q filterd \
    || { echo "smoke-filterd: no pprof on the debug listener" >&2; exit 1; }

# Restart on the same store: the daemon warm-loads the plans it wrote.
kill "$FILTERD_PID"
wait "$FILTERD_PID" || true
start_daemon
curl -sf -X POST "http://127.0.0.1:$PORT/v1/plan" -d "$REQUEST" >"$BIN/restart.json"
RESTART_OUTCOME=$(field outcome "$BIN/restart.json")
RESTART_VALUE=$(field value "$BIN/restart.json")
SOURCE=$(curl -sf "http://127.0.0.1:$PORT/v1/explain/$HASH" | sed -n 's/.*"source": "\([^"]*\)".*/\1/p' | head -1)
LOADED=$(metric filterd_store_loaded_total)
echo "smoke-filterd: after restart outcome=$RESTART_OUTCOME value=$RESTART_VALUE source=$SOURCE loaded=$LOADED"
[ "$RESTART_OUTCOME" = "hit" ] || { echo "smoke-filterd: restarted daemon did not answer from its store" >&2; exit 1; }
[ "$RESTART_VALUE" = "$HTTP_VALUE" ] || { echo "smoke-filterd: value changed across the restart" >&2; exit 1; }
[ "$SOURCE" = "store" ] || { echo "smoke-filterd: /v1/explain source is '$SOURCE', want store" >&2; exit 1; }
[ "$LOADED" -ge 1 ] || { echo "smoke-filterd: filterd_store_loaded_total is $LOADED" >&2; exit 1; }

# At warn level in JSON format, every log line the daemon wrote is a JSON
# object.
if grep -v '^{' "$BIN/filterd.log" >&2; then
    echo "smoke-filterd: log lines above are not JSON" >&2
    exit 1
fi

# -method auto dispatches branch-and-bound on mixed6 and must report the
# same search as asking for it by name.
AUTO_SEARCH=$("$BIN/filterplan" -in testdata/mixed6.json -method auto -workers 1 | grep '^search:' || true)
BNB_SEARCH=$("$BIN/filterplan" -in testdata/mixed6.json -method bnb -workers 1 | grep '^search:' || true)
echo "smoke-filterd: auto $AUTO_SEARCH"
[ -n "$AUTO_SEARCH" ] && [ "$AUTO_SEARCH" = "$BNB_SEARCH" ] \
    || { echo "smoke-filterd: -method auto search line '$AUTO_SEARCH' != -method bnb '$BNB_SEARCH'" >&2; exit 1; }

# Replaying the Figure 1 schedule completes one data set per period λ.
"$BIN/filterplan" -demo fig1 -gantt -timeline -replay 8 >"$BIN/fig1.txt"
PERIOD=$(sed -n 's/^schedule: period λ = \([^,]*\),.*/\1/p' "$BIN/fig1.txt")
GAP=$(sed -n 's/^replay: steady inter-completion gap \([^,]*\),.*/\1/p' "$BIN/fig1.txt")
echo "smoke-filterd: fig1 period λ=$PERIOD replay gap=$GAP"
[ -n "$PERIOD" ] && [ "$PERIOD" = "$GAP" ] || { echo "smoke-filterd: replay gap differs from the period" >&2; exit 1; }
echo "smoke-filterd: OK"
