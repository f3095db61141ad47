#!/usr/bin/env sh
# End-to-end smoke of the filterd cluster: boot two replicas and a router,
# plan testdata/webquery8.json through the router, require the routed
# answer to match the filterplan CLI on the same canonical instance, then
# kill the owning replica mid-run and require the router to fail over to
# its local solve with the identical value — and require the dead peer's
# circuit breaker to open on the router's /metrics page, with the per-peer
# failover counter moving and the replicas' own /metrics alive.
# Observability: a client-chosen X-Filterd-Request-Id must round-trip on
# the routed AND the failover response, and /v1/explain's nodes-expanded
# counter must agree with the filterplan CLI's own bnb search report.
# No dependencies beyond a POSIX shell, awk and curl (JSON and headers are
# picked apart with sed so CI images without jq work too).
set -eu

BASE="${FILTERD_CLUSTER_PORT:-18330}"
ROUTER_PORT="$BASE"
REP1_PORT=$((BASE + 1))
REP2_PORT=$((BASE + 2))
MODEL=inorder
BIN="$(mktemp -d)"
REP1_PID=
REP2_PID=
ROUTER_PID=
# The kill loop must tolerate already-cleared PIDs (the failover step
# empties the killed replica's variable): unquoted expansion drops them,
# and per-PID kills keep one bad arg from aborting the rest.
trap 'for p in $REP1_PID $REP2_PID $ROUTER_PID; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

go build -o "$BIN/filterd" ./cmd/filterd
go build -o "$BIN/filterplan" ./cmd/filterplan

"$BIN/filterd" -addr "127.0.0.1:$REP1_PORT" -workers 1 &
REP1_PID=$!
"$BIN/filterd" -addr "127.0.0.1:$REP2_PORT" -workers 1 &
REP2_PID=$!
# -replicas 1 pins a single owner per shard, so killing it exercises the
# local-failover path this smoke is about; the replicated R=2 ladder
# (co-owner serves, zero 5xx) is scripts/smoke_chaos.sh's story.
"$BIN/filterd" -addr "127.0.0.1:$ROUTER_PORT" -workers 1 -replicas 1 \
    -peers "http://127.0.0.1:$REP1_PORT,http://127.0.0.1:$REP2_PORT" &
ROUTER_PID=$!

wait_up() {
    i=0
    until curl -sf "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke-cluster: daemon did not come up on port $1" >&2
            exit 1
        fi
        sleep 0.2
    done
}
wait_up "$REP1_PORT"
wait_up "$REP2_PORT"
wait_up "$ROUTER_PORT"

# metric NAME [PORT]: one family off /metrics (default port: the router),
# summed over its label sets; NAME may pin labels, as in
# 'filterd_sync_accepted_total{kind="instances"}'. Absent reads 0.
metric() {
    curl -sf "http://127.0.0.1:${2:-$ROUTER_PORT}/metrics" | awk -v n="$1" '
        index($0, n) == 1 && substr($0, length(n) + 1) ~ /^[ {]/ { s += $NF }
        END { printf "%d\n", s }'
}

REQUEST="{\"instance\": $(cat testdata/webquery8.json), \"model\": \"$MODEL\", \"objective\": \"period\"}"
HDRS="$BIN/headers.txt"

# Routed request: capture the value plus the routing headers, sending a
# client-chosen request ID that must echo back.
RID="smoke-cluster-rid-1"
ROUTED_VALUE=$(curl -sf -D "$HDRS" -H "X-Filterd-Request-Id: $RID" \
    -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$REQUEST" \
    | sed -n 's/.*"value": "\([^"]*\)".*/\1/p' | head -1)
OWNER=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Shard-Owner: //p' | head -1)
SERVED_BY=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Served-By: //p' | head -1)
ECHOED_RID=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Request-Id: //p' | head -1)
[ "$ECHOED_RID" = "$RID" ] || { echo "smoke-cluster: request id not echoed on routed response (got '$ECHOED_RID')" >&2; exit 1; }

# -canon makes the CLI solve the same canonical instance the service does.
CLI_VALUE=$("$BIN/filterplan" -canon -in testdata/webquery8.json -model "$MODEL" -objective period \
    | sed -n 's/^period = \([^ ]*\) .*/\1/p' | head -1)

echo "smoke-cluster: routed value=$ROUTED_VALUE CLI value=$CLI_VALUE owner=$OWNER served-by=$SERVED_BY"
[ -n "$ROUTED_VALUE" ] || { echo "smoke-cluster: empty routed value" >&2; exit 1; }
[ "$ROUTED_VALUE" = "$CLI_VALUE" ] || { echo "smoke-cluster: routed and CLI disagree" >&2; exit 1; }
[ "$SERVED_BY" = "$OWNER" ] || { echo "smoke-cluster: first answer not served by the owner" >&2; exit 1; }

# Kill the owning replica mid-run; the router must fail over to its local
# solve and still return the identical answer.
case "$OWNER" in
    *":$REP1_PORT") kill "$REP1_PID"; REP1_PID= ;;
    *":$REP2_PORT") kill "$REP2_PID"; REP2_PID= ;;
    *) echo "smoke-cluster: unexpected owner $OWNER" >&2; exit 1 ;;
esac

RID2="smoke-cluster-rid-2"
FAILOVER_VALUE=$(curl -sf -D "$HDRS" -H "X-Filterd-Request-Id: $RID2" \
    -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$REQUEST" \
    | sed -n 's/.*"value": "\([^"]*\)".*/\1/p' | head -1)
SERVED_BY2=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Served-By: //p' | head -1)
ECHOED_RID2=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Request-Id: //p' | head -1)
[ "$ECHOED_RID2" = "$RID2" ] || { echo "smoke-cluster: request id not echoed on failover response (got '$ECHOED_RID2')" >&2; exit 1; }
FAILOVERS=$(metric filterd_router_failovers_total)

echo "smoke-cluster: failover value=$FAILOVER_VALUE served-by=$SERVED_BY2 failovers=$FAILOVERS"
[ "$FAILOVER_VALUE" = "$CLI_VALUE" ] || { echo "smoke-cluster: failover answer disagrees" >&2; exit 1; }
[ "$SERVED_BY2" = "local-failover" ] || { echo "smoke-cluster: request was not failed over locally" >&2; exit 1; }
[ -n "$FAILOVERS" ] && [ "$FAILOVERS" -ge 1 ] || { echo "smoke-cluster: router counted no failover" >&2; exit 1; }

# The dead peer's circuit breaker must open within K failed forwards:
# keep sending requests (each is a failed forward plus its retries) until
# the router's /metrics reports breaker state 1 (open) for that peer.
METRICS="$BIN/metrics.txt"
i=0
while :; do
    curl -sf "http://127.0.0.1:$ROUTER_PORT/metrics" >"$METRICS"
    if grep -q "filterd_router_breaker_state{peer=\"$OWNER\"} 1" "$METRICS"; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 10 ]; then
        echo "smoke-cluster: breaker for $OWNER never opened" >&2
        grep '^filterd_router_breaker' "$METRICS" >&2 || true
        exit 1
    fi
    curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$REQUEST" >/dev/null || true
    sleep 0.2
done
echo "smoke-cluster: breaker open for $OWNER after $i extra requests"

# Per-peer failover counter moved, and with the breaker open the answers
# stay bit-identical to the CLI (the breaker decides who solves, never
# what the answer is).
grep -q "filterd_router_failovers_total{peer=\"$OWNER\"}" "$METRICS" \
    || { echo "smoke-cluster: no per-peer failover counter on /metrics" >&2; exit 1; }
OPEN_VALUE=$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$REQUEST" \
    | sed -n 's/.*"value": "\([^"]*\)".*/\1/p' | head -1)
[ "$OPEN_VALUE" = "$CLI_VALUE" ] || { echo "smoke-cluster: answer under open breaker disagrees" >&2; exit 1; }

# The surviving replica serves its own Prometheus page.
case "$OWNER" in
    *":$REP1_PORT") ALIVE_PORT=$REP2_PORT ;;
    *) ALIVE_PORT=$REP1_PORT ;;
esac
curl -sf "http://127.0.0.1:$ALIVE_PORT/metrics" | grep -q '^filterd_queue_depth' \
    || { echo "smoke-cluster: replica /metrics missing filterd_queue_depth" >&2; exit 1; }

# /v1/explain must agree with the CLI's own branch-and-bound search
# report: plan mixed6 (no precedence, so the forest family applies) with
# -method bnb through the router, then compare the explain endpoint's
# nodes-expanded counter against filterplan's "search:" line. Workers 1
# on both sides — the service pins inner solves serial, which is what
# makes the counters a deterministic contract. The counter must be
# positive: two searches that expanded nothing would agree vacuously.
BNB_REQUEST="{\"instance\": $(cat testdata/mixed6.json), \"model\": \"$MODEL\", \"objective\": \"period\", \"method\": \"bnb\", \"family\": \"forest\"}"
BNB_HASH=$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$BNB_REQUEST" \
    | sed -n 's/.*"hash": "\([0-9a-f]*\)".*/\1/p' | head -1)
[ -n "$BNB_HASH" ] || { echo "smoke-cluster: bnb plan returned no hash" >&2; exit 1; }
EXPLAIN="$BIN/explain.json"
curl -sf "http://127.0.0.1:$ROUTER_PORT/v1/explain/$BNB_HASH" >"$EXPLAIN"
GOT_EXPANDED=$(sed -n 's/.*"expanded": \([0-9]*\).*/\1/p' "$EXPLAIN" | head -1)
WANT_EXPANDED=$("$BIN/filterplan" -canon -in testdata/mixed6.json -model "$MODEL" -objective period \
    -method bnb -family forest -workers 1 \
    | sed -n 's/^search: \([0-9]*\) nodes expanded.*/\1/p' | head -1)
echo "smoke-cluster: explain nodes-expanded=$GOT_EXPANDED CLI nodes-expanded=$WANT_EXPANDED"
[ -n "$GOT_EXPANDED" ] && [ -n "$WANT_EXPANDED" ] \
    || { echo "smoke-cluster: missing nodes-expanded counter" >&2; cat "$EXPLAIN" >&2; exit 1; }
[ "$GOT_EXPANDED" -gt 0 ] \
    || { echo "smoke-cluster: the bnb search expanded no node" >&2; cat "$EXPLAIN" >&2; exit 1; }
[ "$GOT_EXPANDED" = "$WANT_EXPANDED" ] \
    || { echo "smoke-cluster: explain and CLI disagree on nodes expanded" >&2; cat "$EXPLAIN" >&2; exit 1; }
grep -q '"source": "' "$EXPLAIN" || { echo "smoke-cluster: explain has no source" >&2; exit 1; }
echo "smoke-cluster: OK"
