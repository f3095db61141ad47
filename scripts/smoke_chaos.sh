#!/usr/bin/env sh
# Chaos smoke of the replicated cluster (DESIGN.md §4): boot THREE
# replicas gossiping over -sync-peers plus a router with -replicas 2 and
# the deterministic fault injector armed (seeded drops, injected 502s,
# torn response bodies on the forwarding wire). Drive traffic, kill the
# owning replica mid-run, keep driving, then restart it. The whole run
# must show ZERO client-visible 5xx, every answer bit-identical to the
# filterplan CLI, the router's under-replicated gauge rising on the kill
# and healing on the restore, and the restarted replica — which lost all
# in-memory state — re-learning every planned instance from its
# co-replicas via anti-entropy alone (filterd_registered_instances on
# its /metrics). No dependencies beyond a POSIX shell, awk and curl (JSON
# picked apart with sed so CI images without jq work too).
set -eu

BASE="${FILTERD_CHAOS_PORT:-18440}"
ROUTER_PORT="$BASE"
REP1_PORT=$((BASE + 1))
REP2_PORT=$((BASE + 2))
REP3_PORT=$((BASE + 3))
MODEL=inorder
BIN="$(mktemp -d)"
REP1_PID=
REP2_PID=
REP3_PID=
ROUTER_PID=
trap 'for p in $REP1_PID $REP2_PID $REP3_PID $ROUTER_PID; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

go build -o "$BIN/filterd" ./cmd/filterd
go build -o "$BIN/filterplan" ./cmd/filterplan

# Each replica gossips with the other two; Workers 1 pins the solves
# serial, which is what makes every owner's answer bit-identical.
start_replica() { # port sync1 sync2 -> PID on stdout
    # The daemon must not inherit the command-substitution pipe, or $()
    # would block until it exits: both streams go to the log.
    "$BIN/filterd" -addr "127.0.0.1:$1" -workers 1 \
        -sync-peers "http://127.0.0.1:$2,http://127.0.0.1:$3" \
        -gossip-interval 300ms >>"$BIN/replica-$1.log" 2>&1 &
    echo $!
}
REP1_PID=$(start_replica "$REP1_PORT" "$REP2_PORT" "$REP3_PORT")
REP2_PID=$(start_replica "$REP2_PORT" "$REP1_PORT" "$REP3_PORT")
REP3_PID=$(start_replica "$REP3_PORT" "$REP1_PORT" "$REP2_PORT")

# The router owns the fault schedule: every forward (and health probe)
# rides the seeded injector, so the wire noise is reproducible run to run.
"$BIN/filterd" -addr "127.0.0.1:$ROUTER_PORT" -workers 1 -replicas 2 \
    -peers "http://127.0.0.1:$REP1_PORT,http://127.0.0.1:$REP2_PORT,http://127.0.0.1:$REP3_PORT" \
    -fault-seed 20090822 -fault-drop 12 -fault-error 15 -fault-truncate 18 \
    2>>"$BIN/router.log" &
ROUTER_PID=$!

wait_up() {
    i=0
    until curl -sf "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "smoke-chaos: daemon did not come up on port $1" >&2
            exit 1
        fi
        sleep 0.2
    done
}
wait_up "$REP1_PORT"
wait_up "$REP2_PORT"
wait_up "$REP3_PORT"
wait_up "$ROUTER_PORT"

REQ_A="{\"instance\": $(cat testdata/webquery8.json), \"model\": \"$MODEL\", \"objective\": \"period\"}"
REQ_B="{\"instance\": $(cat testdata/mixed6.json), \"model\": \"$MODEL\", \"objective\": \"period\"}"

# The fault-free references, from the CLI on the same canonical instances.
CLI_A=$("$BIN/filterplan" -canon -in testdata/webquery8.json -model "$MODEL" -objective period \
    | sed -n 's/^period = \([^ ]*\) .*/\1/p' | head -1)
CLI_B=$("$BIN/filterplan" -canon -in testdata/mixed6.json -model "$MODEL" -objective period \
    | sed -n 's/^period = \([^ ]*\) .*/\1/p' | head -1)
[ -n "$CLI_A" ] && [ -n "$CLI_B" ] || { echo "smoke-chaos: CLI reference failed" >&2; exit 1; }

# hit REQUEST WANT LABEL: one routed request. Any 5xx fails the smoke on
# the spot; the value must match the CLI bit for bit.
BODY="$BIN/body.json"
hit() {
    code=$(curl -s -o "$BODY" -w '%{http_code}' \
        -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$1")
    if [ "$code" -ge 500 ]; then
        echo "smoke-chaos: client saw a $code during $3" >&2
        cat "$BODY" >&2
        exit 1
    fi
    [ "$code" = 200 ] || { echo "smoke-chaos: status $code during $3" >&2; cat "$BODY" >&2; exit 1; }
    value=$(sed -n 's/.*"value": "\([^"]*\)".*/\1/p' "$BODY" | head -1)
    [ "$value" = "$2" ] || { echo "smoke-chaos: value $value != CLI $2 during $3" >&2; exit 1; }
}

# metric NAME [PORT]: one family off /metrics (default port: the router),
# summed over its label sets; NAME may pin labels, as in
# 'filterd_sync_accepted_total{kind="instances"}'. Absent reads 0.
metric() {
    curl -sf "http://127.0.0.1:${2:-$ROUTER_PORT}/metrics" | awk -v n="$1" '
        index($0, n) == 1 && substr($0, length(n) + 1) ~ /^[ {]/ { s += $NF }
        END { printf "%d\n", s }'
}

# Warm traffic: both instances through the router, several rounds, under
# the fault schedule the whole time.
i=0
while [ "$i" -lt 6 ]; do
    hit "$REQ_A" "$CLI_A" "warmup round $i"
    hit "$REQ_B" "$CLI_B" "warmup round $i"
    i=$((i + 1))
done

# Find webquery8's preferred owner so the kill is guaranteed to matter.
HDRS="$BIN/headers.txt"
curl -s -D "$HDRS" -o /dev/null -X POST "http://127.0.0.1:$ROUTER_PORT/v1/plan" -d "$REQ_A"
OWNER=$(tr -d '\r' <"$HDRS" | sed -n 's/^X-Filterd-Shard-Owner: //p' | head -1)
case "$OWNER" in
    *":$REP1_PORT") VICTIM_PID=$REP1_PID; VICTIM_PORT=$REP1_PORT; REP1_PID= ;;
    *":$REP2_PORT") VICTIM_PID=$REP2_PID; VICTIM_PORT=$REP2_PORT; REP2_PID= ;;
    *":$REP3_PORT") VICTIM_PID=$REP3_PID; VICTIM_PORT=$REP3_PORT; REP3_PID= ;;
    *) echo "smoke-chaos: unexpected owner $OWNER" >&2; exit 1 ;;
esac
echo "smoke-chaos: killing owner $OWNER mid-traffic"
kill "$VICTIM_PID"

# Traffic straight through the loss: the co-owner (or the router's local
# solve) absorbs every read, so the client sees neither a 5xx nor a
# different answer.
i=0
while [ "$i" -lt 10 ]; do
    hit "$REQ_A" "$CLI_A" "owner-down round $i"
    hit "$REQ_B" "$CLI_B" "owner-down round $i"
    i=$((i + 1))
done

# The router must notice the loss: some shards below R.
i=0
while :; do
    UNDER=$(metric filterd_router_underreplicated_shards)
    [ -n "$UNDER" ] && [ "$UNDER" -gt 0 ] && break
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smoke-chaos: under-replication never observed" >&2
        curl -sf "http://127.0.0.1:$ROUTER_PORT/metrics" | grep '^filterd_router_' >&2 || true
        exit 1
    fi
    hit "$REQ_A" "$CLI_A" "under-replication poll $i"
    sleep 0.2
done
echo "smoke-chaos: under-replicated shards = $UNDER with $OWNER down"

# Restart the victim. It comes back EMPTY (no -data-dir): everything it
# re-learns, it re-learns from its co-replicas via anti-entropy.
case "$VICTIM_PORT" in
    "$REP1_PORT") REP1_PID=$(start_replica "$REP1_PORT" "$REP2_PORT" "$REP3_PORT") ;;
    "$REP2_PORT") REP2_PID=$(start_replica "$REP2_PORT" "$REP1_PORT" "$REP3_PORT") ;;
    "$REP3_PORT") REP3_PID=$(start_replica "$REP3_PORT" "$REP1_PORT" "$REP2_PORT") ;;
esac
wait_up "$VICTIM_PORT"

# Heal: the health loop probes the replica back and the gauge returns to
# zero (breaker cooldown + probe period bound the wait).
i=0
until [ "$(metric filterd_router_underreplicated_shards)" = 0 ]; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "smoke-chaos: cluster did not re-heal after the restart" >&2
        curl -sf "http://127.0.0.1:$ROUTER_PORT/metrics" | grep '^filterd_router_' >&2 || true
        exit 1
    fi
    sleep 0.2
done
echo "smoke-chaos: cluster re-healed to full replication"

# Registry convergence: the restarted replica's drift registry must
# re-fill to both planned instances by gossip alone.
i=0
while :; do
    REG=$(metric filterd_registered_instances "$VICTIM_PORT")
    [ -n "$REG" ] && [ "$REG" -ge 2 ] && break
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-chaos: restarted replica re-learned $REG instances, want 2" >&2
        exit 1
    fi
    sleep 0.2
done
echo "smoke-chaos: restarted replica re-learned $REG instances via gossip"

# Final traffic over the healed cluster, still under the fault schedule.
i=0
while [ "$i" -lt 4 ]; do
    hit "$REQ_A" "$CLI_A" "healed round $i"
    hit "$REQ_B" "$CLI_B" "healed round $i"
    i=$((i + 1))
done

# The gossip wire moved real instances: the restarted replica counts
# them on its /metrics.
SYNCED=$(metric 'filterd_sync_accepted_total{kind="instances"}' "$VICTIM_PORT")
[ -n "$SYNCED" ] && [ "$SYNCED" -ge 1 ] \
    || { echo "smoke-chaos: restarted replica accepted no synced instances" >&2; exit 1; }

echo "smoke-chaos: OK (zero 5xx, answers bit-identical, registry converged)"
