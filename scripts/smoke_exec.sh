#!/usr/bin/env sh
# End-to-end smoke of the data plane: boot filterd, run filterexec
# against it with an injected cost drift, and require the closed loop to
# complete — the executor's estimators must trigger at least one re-plan
# PATCH, and the hot-swapped schedule must be bit-identical to what the
# filterplan CLI computes on the drifted (post-PATCH) instance, and the
# daemon's /metrics must count the PATCHes the executor reports. A second,
# embedded run must converge a drifted selectivity on its true value.
# No dependencies beyond a POSIX shell, awk and curl (JSON is picked
# apart with sed so CI images without jq work too).
set -eu

PORT="${FILTEREXEC_PORT:-18331}"
BIN="$(mktemp -d)"
FILTERD_PID=
trap 'kill "$FILTERD_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/filterd" ./cmd/filterd
go build -o "$BIN/filterexec" ./cmd/filterexec
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
        echo "smoke-exec: daemon did not come up on port $PORT" >&2
        exit 1
    fi
    sleep 0.2
done

# Run the executor with an 8x cost drift on C1 (the stream head, so it
# sees every tuple and clears the min-samples gate): the stream behaves
# per the true cost, the estimators converge, the controller PATCHes
# the instance over HTTP and hot-swaps to the re-planned schedule. The
# wide window/threshold keeps Bernoulli selectivity noise below the
# trigger, so the injected drift is the only re-plan episode. The stream
# is paced (-rate): pacing never moves a verdict or a decision, so the
# final schedule is the unpaced one.
"$BIN/filterexec" -in testdata/webquery8.json -url "http://127.0.0.1:$PORT" \
    -model overlap -objective period -tuples 4096 -workers 4 -rate 20000 \
    -window 512 -min-samples 256 -threshold 1/4 -drift-cost 'C1=8' \
    -json -dump-instance "$BIN/drifted.json" -dump-schedule "$BIN/exec_sched.json" \
    >"$BIN/report.json"

PATCHES=$(sed -n 's/^  "Patches": \([0-9]*\),*$/\1/p' "$BIN/report.json" | head -1)
SWAPS=$(sed -n 's/^  "Swaps": \([0-9]*\),*$/\1/p' "$BIN/report.json" | head -1)

# The CLI must reproduce the executor's final schedule bit for bit from
# the dumped post-PATCH instance (-canon solves the same canonical form
# the service planned).
"$BIN/filterplan" -canon -in "$BIN/drifted.json" -model overlap -objective period \
    -schedule-out "$BIN/cli_sched.json" >/dev/null

DRIFTS=$(metric filterd_drift_requests_total)

echo "smoke-exec: patches=$PATCHES swaps=$SWAPS daemon drift requests=$DRIFTS"
[ -n "$PATCHES" ] || { echo "smoke-exec: no patch count in report" >&2; exit 1; }
[ "$PATCHES" -ge 1 ] || { echo "smoke-exec: no re-plan occurred" >&2; exit 1; }
[ "$SWAPS" -ge 1 ] || { echo "smoke-exec: no schedule hot swap occurred" >&2; exit 1; }
[ "$DRIFTS" -ge "$PATCHES" ] || { echo "smoke-exec: daemon counted $DRIFTS drift requests, executor sent $PATCHES" >&2; exit 1; }
cmp -s "$BIN/exec_sched.json" "$BIN/cli_sched.json" || {
    echo "smoke-exec: executor and CLI schedules differ on the drifted instance" >&2
    exit 1
}

# Embedded mode (no -url): a selectivity drift on C3 (declared 7/10, true
# 1/2). The controller must PATCH exactly once, and leave C3's declared
# selectivity within the relative threshold of the truth: sampling noise
# on the undrifted services stays inside three standard errors.
"$BIN/filterexec" -in testdata/webquery8.json -model overlap -objective period \
    -threshold 1/8 -drift 'C3=1/2' -json -dump-instance "$BIN/embedded.json" >"$BIN/embedded_report.json"
EMB_PATCHES=$(sed -n 's/^  "Patches": \([0-9]*\),*$/\1/p' "$BIN/embedded_report.json" | head -1)
C3_SEL=$(awk '/"name": "C3"/ { c3 = 1 } c3 && /"selectivity"/ { gsub(/[",]/, "", $2); print $2; exit }' "$BIN/embedded.json")
echo "smoke-exec: embedded run patches=$EMB_PATCHES, declared C3 selectivity=$C3_SEL (true 1/2)"
[ "$EMB_PATCHES" = 1 ] || { echo "smoke-exec: embedded run sent $EMB_PATCHES patches, want 1" >&2; exit 1; }
echo "$C3_SEL" | awk -F/ '{ s = ($2 == "") ? $1 : $1 / $2; d = s - 0.5; if (d < 0) d = -d; exit !(d <= 0.5 / 8) }' \
    || { echo "smoke-exec: declared C3 selectivity $C3_SEL is not within 1/8 of 1/2" >&2; exit 1; }
echo "smoke-exec: OK"
