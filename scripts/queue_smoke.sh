#!/usr/bin/env bash
# Queue-backend CI smoke: serial ≡ queue bit-for-bit, shared cache,
# and a kill-one-worker leg proving lease reclaim loses no requests.
#
# Usage: scripts/queue_smoke.sh [WORKDIR]   (run from the repo root)
set -euo pipefail

WORK="${1:-$(mktemp -d /tmp/queue-smoke.XXXXXX)}"
SPEC="examples/specs/queue_smoke.json"
export PYTHONPATH=src
mkdir -p "$WORK"

echo "== reference: serial run =="
python -m repro scenario run "$SPEC" --backend serial \
  --json "$WORK/serial.jsonl"

echo "== leg 1: spawn mode, 2 workers, shared sqlite cache =="
python -m repro scenario run "$SPEC" --backend queue --workers 2 \
  --cache "sqlite://$WORK/shared.db" --json "$WORK/queue.jsonl" \
  | tee "$WORK/queue_first.log"
python -m repro scenario diff "$WORK/serial.jsonl" "$WORK/queue.jsonl"

echo "== leg 1b: re-run must be served from the shared cache =="
python -m repro scenario run "$SPEC" --backend queue --workers 2 \
  --cache "sqlite://$WORK/shared.db" | tee "$WORK/queue_second.log"
grep -q "misses=0" "$WORK/queue_second.log"

echo "== leg 2: attach mode, external workers, one SIGKILLed mid-sweep =="
SPOOL="$WORK/spool"
mkdir -p "$SPOOL"
export REPRO_QUEUE_DIR="$SPOOL" REPRO_QUEUE_SPAWN=0 REPRO_QUEUE_LEASE_S=2
# the workers read their lease from REPRO_QUEUE_LEASE_S, like the parent
python -m repro worker "$SPOOL" --id w1 > "$WORK/w1.log" 2>&1 &
W1=$!
python -m repro worker "$SPOOL" --id w2 > "$WORK/w2.log" 2>&1 &
W2=$!
python -m repro scenario run "$SPEC" --backend queue \
  --json "$WORK/killed.jsonl" > "$WORK/killed.log" 2>&1 &
RUN=$!
# let the sweep get going (first result landed), then take out one
# worker the hard way
while [ -z "$(ls "$SPOOL/done" 2>/dev/null)" ]; do
  sleep 0.2
done
kill -9 "$W1"
echo "worker w1 SIGKILLed; its claims must be reclaimed via lease expiry"
wait "$RUN"
cat "$WORK/killed.log"
echo "asserting zero dropped requests (scenario diff vs serial)"
python -m repro scenario diff "$WORK/serial.jsonl" "$WORK/killed.jsonl"
kill "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true

echo "queue smoke: all legs passed"
