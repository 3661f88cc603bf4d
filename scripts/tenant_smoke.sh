#!/bin/sh
# tenant_smoke.sh — end-to-end smoke test of multi-tenant blitzd and the
# disk-backed result store:
#   1. start blitzd with a two-tenant key file (alice generous, bob tiny),
#      a store directory, and a results ledger;
#   2. a keyless request is rejected 401; alice computes a sweep (cached,
#      persisted, ledgered); bob exhausts his rate limit and gets 429 +
#      Retry-After while alice keeps being served;
#   3. restart blitzd on the same store directory and assert the sweep is
#      served from disk byte-identically — blitzctl -verify proves the
#      served bytes hash to the pre-restart ledger entry, and
#      blitzd_sweep_rows_total stays 0 (zero engine executions); the same
#      request follows its /v1/stream, which must answer the disk-only
#      hash with a synthetic cached sweep-done.
# Exits non-zero on any failure. No curl dependency; blitzctl is the client.
set -eu

workdir=$(mktemp -d)
trap 'status=$?; [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null; wait 2>/dev/null || true; rm -rf "$workdir"; exit $status' EXIT INT TERM

echo "tenant-smoke: building blitzd and blitzctl"
go build -o "$workdir/blitzd" ./cmd/blitzd
go build -o "$workdir/blitzctl" ./cmd/blitzctl

cat >"$workdir/keys.json" <<'EOF'
{
  "tenants": [
    {"name": "alice", "key": "alice-secret"},
    {"name": "bob", "key": "bob-secret", "rate_per_sec": 0.001, "burst": 1, "priority": "batch"}
  ]
}
EOF

start_daemon() {
    rm -f "$workdir/addr"
    "$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/addr" \
        -keys "$workdir/keys.json" -store "$workdir/store" \
        -ledger "$workdir/ledger.jsonl" -ledger-batch 1 \
        >"$workdir/blitzd.out" 2>>"$workdir/blitzd.log" &
    daemon_pid=$!
    i=0
    while [ ! -s "$workdir/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "tenant-smoke: daemon never came up" >&2
            cat "$workdir/blitzd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(cat "$workdir/addr")
}

stop_daemon() {
    kill -INT "$daemon_pid"
    i=0
    while kill -0 "$daemon_pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "tenant-smoke: daemon ignored SIGINT" >&2
            exit 1
        fi
        sleep 0.1
    done
    daemon_pid=""
}

start_daemon
echo "tenant-smoke: blitzd on $addr (keys + store + ledger)"

sweep() {
    # $1: api key (empty = keyless)
    BLITZ_API_KEY="$1" "$workdir/blitzctl" -addr "$addr" -exchange -dim 4 -trials 2 -seed 1
}

echo "tenant-smoke: keyless request must be rejected 401"
if out=$(sweep "" 2>&1); then
    echo "tenant-smoke: keyless request served: $out" >&2
    exit 1
fi
case "$out" in
*unauthorized*) ;;
*) echo "tenant-smoke: keyless rejection not surfaced as unauthorized: $out" >&2; exit 1 ;;
esac

echo "tenant-smoke: alice computes the sweep"
first=$(sweep alice-secret)
case "$first" in
*'"cached": false'*) ;;
*) echo "tenant-smoke: alice's first response not a cache miss: $first" >&2; exit 1 ;;
esac

echo "tenant-smoke: bob's first request is served, the second throttled"
sweep bob-secret >/dev/null
if out=$(sweep bob-secret 2>&1); then
    echo "tenant-smoke: bob over his rate limit was served" >&2
    exit 1
fi
case "$out" in
*throttled*'retry in'*) ;;
*) echo "tenant-smoke: bob's 429 not surfaced with Retry-After: $out" >&2; exit 1 ;;
esac

echo "tenant-smoke: alice is still served while bob is throttled"
second=$(sweep alice-secret)
case "$second" in
*'"cached": true'*) ;;
*) echo "tenant-smoke: alice's repeat not served from cache: $second" >&2; exit 1 ;;
esac

metrics=$(BLITZ_API_KEY=alice-secret "$workdir/blitzctl" -addr "$addr" -metrics)
echo "$metrics" | grep -q 'blitzd_tenant_rejects_total{tenant="bob",reason="rate"} 1' || {
    echo "tenant-smoke: bob's rate rejection not counted" >&2
    echo "$metrics" | grep blitzd_tenant >&2
    exit 1
}
echo "$metrics" | grep -q 'blitzd_unauthenticated_total 1' || {
    echo "tenant-smoke: 401 not counted" >&2
    exit 1
}
echo "$metrics" | grep -q 'blitzd_store_writes_total 1' || {
    echo "tenant-smoke: computed sweep not persisted to the store" >&2
    echo "$metrics" | grep blitzd_store >&2
    exit 1
}

echo "tenant-smoke: restarting blitzd on the same store directory"
stop_daemon
start_daemon
echo "tenant-smoke: blitzd back on $addr"

echo "tenant-smoke: sweep must be served from disk, byte-identically, with zero executions"
third=$(BLITZ_API_KEY=alice-secret "$workdir/blitzctl" -addr "$addr" \
    -exchange -dim 4 -trials 2 -seed 1 -verify -stream 2>"$workdir/verify.log")
case "$third" in
*'"cached": true'*'"tier": "disk"'*) ;;
*) echo "tenant-smoke: post-restart response not a disk hit: $third" >&2; exit 1 ;;
esac
grep -q 'ledger verification OK' "$workdir/verify.log" || {
    # The disk-served bytes must still hash to the SHA the pre-restart
    # ledger recorded — the byte-identity proof.
    echo "tenant-smoke: ledger verification of the disk-served result failed" >&2
    cat "$workdir/verify.log" >&2
    exit 1
}
# The stream subscribed before the POST, while the hash was on disk only.
if grep -q 'stream did not complete' "$workdir/verify.log" ||
    ! grep -q 'sweep-done.*"cached":true' "$workdir/verify.log"; then
    echo "tenant-smoke: stream of the disk-only hash did not answer with a cached sweep-done" >&2
    cat "$workdir/verify.log" >&2
    exit 1
fi

# The served result and the pre-restart result must be the same bytes.
first_result=$(printf '%s' "$first" | sed -n 's/.*"result"://p')
third_result=$(printf '%s' "$third" | sed -n 's/.*"result"://p')
[ "$first_result" = "$third_result" ] || {
    echo "tenant-smoke: post-restart result bytes differ" >&2
    exit 1
}

metrics=$(BLITZ_API_KEY=alice-secret "$workdir/blitzctl" -addr "$addr" -metrics)
echo "$metrics" | grep -q '^blitzd_sweep_rows_total 0$' || {
    echo "tenant-smoke: restarted daemon executed the engine (sweep rows != 0):" >&2
    echo "$metrics" | grep blitzd_sweep_rows >&2
    exit 1
}
echo "$metrics" | grep -q '^blitzd_store_hits_total 1$' || {
    echo "tenant-smoke: disk hit not counted:" >&2
    echo "$metrics" | grep blitzd_store >&2
    exit 1
}

stop_daemon
echo "tenant-smoke: OK"
