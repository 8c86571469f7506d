#!/bin/sh
# Tier-1 CI: build, tests, and instrumented smoke runs.
#
#   bin/ci.sh
#
# Fails on: any build error, any test failure, or a non-zero exit from
# any smoke run.  Every lib/* stanza is held to a warning-free standard
# via `-warn-error +a` in its dune file, so a warning there IS a build
# error — no log scraping needed.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune build @all (warnings fatal in every lib/*) =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== property suites again: fresh QCheck seed, QCHECK_LONG =="
# dune runtest pins QCHECK_SEED (test/dune) so tier-1 is repeatable.
# This step draws a fresh seed each run and prints it: a failure here
# reproduces with QCHECK_SEED=<printed seed> QCHECK_LONG=1 and the
# same command.
SEED="$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')"
echo "QCHECK_SEED=$SEED"
QCHECK_SEED="$SEED" QCHECK_LONG=1 dune exec test/test_main.exe -- --compact --color=never

echo "== instrumented smoke: rwc simulate --days 2 --metrics /dev/null =="
dune exec bin/rwc.exe -- simulate --days 2 --metrics /dev/null

echo "== solve-memo smoke: every TE recompute is a memo hit or a real solve =="
# Each run memoizes its last 8 distinct TE inputs: a recompute whose
# capacity vector repeats restores the stored result instead of
# solving.  The memo must hit on this run, and the counters must add up.
MEMO_OUT="$(mktemp)"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-efficient \
  --metrics > /dev/null 2> "$MEMO_OUT"
HITS="$(awk '$1 == "te/cache_hits" { print $3 }' "$MEMO_OUT")"
RECOMPUTES="$(awk '$1 == "te/recomputes" { print $3 }' "$MEMO_OUT")"
SOLVES="$(sed -n 's|^te/mcf_solve  *histogram  *n=\([0-9]*\).*|\1|p' "$MEMO_OUT")"
echo "te/recomputes=$RECOMPUTES te/cache_hits=$HITS te/mcf_solve n=$SOLVES"
[ "${HITS:-0}" -gt 0 ]
[ "${RECOMPUTES:-0}" -eq "$((HITS + ${SOLVES:-0}))" ]

echo "== TE kernel smoke: exact dual sums stay rare, trees are reused =="
# The solver tests the dual objective before every step against a
# running estimate and sums it exactly (O(m)) only at phase heads and
# near 1.  Each step grows one shortest-path tree per source, or reuses
# the last one's paths while they stay within (1 + eps) of shortest.
# Same run as above: augmentations must have been taken, the exact sums
# must be counted and fewer than the augmentations, and trees must have
# been grown, fewer of them than augmentations.
PATHS="$(awk '$1 == "mcf/augmenting_paths" { print $3 }' "$MEMO_OUT")"
RECHECKS="$(awk '$1 == "mcf/dual_rechecks" { print $3 }' "$MEMO_OUT")"
TREES="$(awk '$1 == "mcf/trees" { print $3 }' "$MEMO_OUT")"
REUSES="$(awk '$1 == "mcf/path_reuses" { print $3 }' "$MEMO_OUT")"
echo "mcf/augmenting_paths=$PATHS mcf/dual_rechecks=$RECHECKS mcf/trees=$TREES mcf/path_reuses=$REUSES"
[ "${PATHS:-0}" -gt 0 ]
[ -n "$RECHECKS" ]
[ "$RECHECKS" -lt "$PATHS" ]
[ "${TREES:-0}" -gt 0 ]
[ "$TREES" -lt "$PATHS" ]
rm -f "$MEMO_OUT"

echo "== chaos smoke: rwc chaos --days 2 --factor 1 --policy adaptive-stock --json =="
CHAOS_JSON="$(mktemp)"
dune exec bin/rwc.exe -- chaos --days 2 --factor 1 --policy adaptive-stock \
  --json "$CHAOS_JSON"
# The emitted degradation table must be non-empty JSON.
grep -q '"rows"' "$CHAOS_JSON"
grep -q '"vs_baseline_pct"' "$CHAOS_JSON"
rm -f "$CHAOS_JSON"

echo "== chaos rollout smoke: gated rows carry rollout counters in --json =="
CHAOS_JSON="$(mktemp)"
dune exec bin/rwc.exe -- chaos --days 1 --factor 1 --policy adaptive-stock \
  --rollout default --json "$CHAOS_JSON"
# Arming --rollout doubles the sweep into a (gated x ungated) grid: the
# JSON rows must flag which half they belong to, and the gated rows must
# surface the staged-commit counters alongside the degradation numbers.
grep -q '"gated": true' "$CHAOS_JSON"
grep -q '"gated": false' "$CHAOS_JSON"
grep -q '"links_admitted"' "$CHAOS_JSON"
grep -q '"waves_committed"' "$CHAOS_JSON"
rm -f "$CHAOS_JSON"

echo "== guard smoke: rwc simulate --days 2 --faults default --guard default =="
dune exec bin/rwc.exe -- simulate --days 2 --faults default --guard default \
  --metrics /dev/null

echo "== journal smoke: rwc simulate --journal + rwc explain =="
JOURNAL="$(mktemp)"
dune exec bin/rwc.exe -- simulate --days 2 --faults default --guard default \
  --journal "$JOURNAL" --slo default
# The journal must open with a run header and explain must reconstruct
# a non-empty per-link timeline from it.
head -1 "$JOURNAL" | grep -q '"ev":"run"'
EXPLAIN_OUT="$(mktemp)"
dune exec bin/rwc.exe -- explain --journal "$JOURNAL" --link 0 --slo default \
  > "$EXPLAIN_OUT"
grep -q 'commit' "$EXPLAIN_OUT"
grep -q 'SLO scorecard' "$EXPLAIN_OUT"
rm -f "$JOURNAL" "$EXPLAIN_OUT"

echo "== crash-resume smoke: crash faults must not change the bytes =="
RECOVER_DIR="$(mktemp -d)"
PLAIN_OUT="$(mktemp)"
CRASH_OUT="$(mktemp)"
PLAIN_JOURNAL="$(mktemp)"
CRASH_JOURNAL="$(mktemp)"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-stock \
  --faults default --journal "$PLAIN_JOURNAL" > "$PLAIN_OUT"
# The same plan plus a crash rule: the controller is killed at random
# sample boundaries and restarted in-process from its checkpoints.
# Recovery is byte-exact, so report and journal must not change.
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-stock \
  --faults default,crash=0.05 --journal "$CRASH_JOURNAL" \
  --checkpoint "$RECOVER_DIR" --checkpoint-every 48 > "$CRASH_OUT"
diff "$PLAIN_OUT" "$CRASH_OUT"
cmp "$PLAIN_JOURNAL" "$CRASH_JOURNAL"
rm -rf "$RECOVER_DIR"
# Again with guard and staged-rollout state in every checkpoint (first
# gate forced to fail, so restarts land mid-wave and mid-rollback).
# --slo stays off: a resumed online SLO tracker can still drift.
RECOVER_DIR="$(mktemp -d)"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-stock \
  --faults default --guard default --rollout wave=2,bake=1800,fail-gate=1 \
  --journal "$PLAIN_JOURNAL" > "$PLAIN_OUT"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-stock \
  --faults default,crash=0.05 --guard default \
  --rollout wave=2,bake=1800,fail-gate=1 --journal "$CRASH_JOURNAL" \
  --checkpoint "$RECOVER_DIR" --checkpoint-every 48 > "$CRASH_OUT"
diff "$PLAIN_OUT" "$CRASH_OUT"
cmp "$PLAIN_JOURNAL" "$CRASH_JOURNAL"
rm -rf "$RECOVER_DIR"
rm -f "$PLAIN_OUT" "$CRASH_OUT" "$PLAIN_JOURNAL" "$CRASH_JOURNAL"

echo "== domains smoke: --domains 4 must not change the bytes =="
# The multicore fleet engine's contract: any --domains width produces
# byte-identical reports and journals.  On runners with fewer than 4
# recommended domains the width is capped (with a stderr note) — the
# diff below stays valid either way, and the full 2/4/8-wide battery
# runs uncapped in `dune runtest` (test/test_par.ml drives the Runner
# config directly).
SEQ_OUT="$(mktemp)"
PAR_OUT="$(mktemp)"
SEQ_JOURNAL="$(mktemp)"
PAR_JOURNAL="$(mktemp)"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-efficient \
  --faults default --journal "$SEQ_JOURNAL" > "$SEQ_OUT"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-efficient \
  --faults default --journal "$PAR_JOURNAL" --domains 4 > "$PAR_OUT"
diff "$SEQ_OUT" "$PAR_OUT"
cmp "$SEQ_JOURNAL" "$PAR_JOURNAL"
dune exec bin/rwc.exe -- chaos --days 1 --factor 1 --policy adaptive-stock \
  > "$SEQ_OUT"
dune exec bin/rwc.exe -- chaos --days 1 --factor 1 --policy adaptive-stock \
  --domains 4 > "$PAR_OUT"
diff "$SEQ_OUT" "$PAR_OUT"
rm -f "$SEQ_OUT" "$PAR_OUT" "$SEQ_JOURNAL" "$PAR_JOURNAL"

echo "== torture smoke: kill/repair/resume at sampled storage boundaries =="
# Every sampled crash point must recover to the byte-identical report
# and journal through fsck + checkpoint/journal resume (exit 1 if any
# boundary fails; `rwc torture` without --quick enumerates them all).
dune exec bin/rwc.exe -- torture --quick
# Same battery with a staged rollout armed and its first gate forced to
# fail: crash points now land mid-wave, mid-bake and mid-rollback, and
# the resumed run must still replay to byte-identical output.
dune exec bin/rwc.exe -- torture --quick --rollout wave=2,bake=1800,fail-gate=1

echo "== fsck smoke: repair a deliberately damaged journal, then reverify =="
FSCK_JOURNAL="$(mktemp)"
FSCK_REPORT="$(mktemp)"
dune exec bin/rwc.exe -- simulate --days 2 --policy adaptive-stock \
  --faults default --journal "$FSCK_JOURNAL" > /dev/null
# Tear the tail mid-line (a crashed writer's torn final record) and
# verify fsck truncates it back, the repair report says so, explain
# reads the repaired journal, and a second fsck pass is clean.
FSCK_BYTES="$(wc -c < "$FSCK_JOURNAL")"
truncate -s "$((FSCK_BYTES - 17))" "$FSCK_JOURNAL"
printf '{"torn":tr' >> "$FSCK_JOURNAL"
dune exec bin/rwc.exe -- fsck --journal "$FSCK_JOURNAL" --json "$FSCK_REPORT"
grep -q '"torn journal tail"' "$FSCK_REPORT"
grep -q '"action": "repaired"' "$FSCK_REPORT"
dune exec bin/rwc.exe -- explain --journal "$FSCK_JOURNAL" --strict --link 0 \
  > /dev/null
dune exec bin/rwc.exe -- fsck --journal "$FSCK_JOURNAL" --json "$FSCK_REPORT"
grep -q '"findings": \[\]' "$FSCK_REPORT"
rm -f "$FSCK_JOURNAL" "$FSCK_REPORT"

echo "== serve smoke: live daemon RPCs, stream catch-up, SIGTERM checkpoint =="
# The daemon and its clients run from the already-built binary: dune
# exec would contend for the build lock with the backgrounded server.
RWC=./_build/default/bin/rwc.exe
SERVE_DIR="$(mktemp -d)"
SERVE_SOCK="$SERVE_DIR/rwc.sock"
"$RWC" serve --days 60 --policy adaptive-stock --faults default \
  --guard default --slo default --journal "$SERVE_DIR/journal.jsonl" \
  --socket "$SERVE_SOCK" --checkpoint "$SERVE_DIR/ckpt" \
  > "$SERVE_DIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ]
# Query and what-if RPCs answer while the run is live.
"$RWC" watch --socket "$SERVE_SOCK" --rpc fleet.status | grep -q '"policy"'
"$RWC" watch --socket "$SERVE_SOCK" --rpc whatif.capacity \
  --params '{"link":0,"gbps":150}' | grep -q '"routed_gbps_after"'
# Journal reads answer from the daemon's index while the run is live.
"$RWC" watch --socket "$SERVE_SOCK" --rpc link.timeline --params '{"link":0}' \
  | grep -q '"events"'
"$RWC" watch --socket "$SERVE_SOCK" --rpc slo.scorecard | grep -q '"scorecard"'
# A subscriber catches up from the journal and receives events.
[ "$("$RWC" watch --socket "$SERVE_SOCK" --raw --from 0 --max-events 3 \
  | wc -l)" -eq 3 ]
# SIGTERM: stop at the next sample boundary, cut a final checkpoint,
# unlink the socket, exit 0.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
# Mid-run checkpoints live in the ring slots ring-0..3.ckpt.
ls "$SERVE_DIR/ckpt" | grep -q '^ring-[0-3]\.ckpt$'
[ ! -e "$SERVE_SOCK" ]
# --resume: the restarted daemon rebuilds its index from the retained
# journal, so a timeline answers at once and a full catch-up replays
# exactly the ordinals the resumed sink has counted.
"$RWC" serve --days 60 --policy adaptive-stock --faults default \
  --guard default --slo default --journal "$SERVE_DIR/journal.jsonl" \
  --socket "$SERVE_SOCK" --checkpoint "$SERVE_DIR/ckpt" --resume \
  > "$SERVE_DIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ]
"$RWC" watch --socket "$SERVE_SOCK" --rpc link.timeline --params '{"link":0}' \
  | grep -q '"events":\[{'
SUBSCRIBED="$("$RWC" watch --socket "$SERVE_SOCK" --rpc stream.subscribe \
  --params '{"topics":["decision"],"from":0}')"
REPLAYED="$(echo "$SUBSCRIBED" | sed -n 's/.*"replayed":\([0-9]*\).*/\1/p')"
NEXT_SEQ="$(echo "$SUBSCRIBED" | sed -n 's/.*"next_seq":\([0-9]*\).*/\1/p')"
[ "${REPLAYED:-0}" -gt 0 ]
[ "$REPLAYED" -eq "$NEXT_SEQ" ]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
[ ! -e "$SERVE_SOCK" ]
rm -rf "$SERVE_DIR"

echo "== serve rollout smoke: propose/approve RPCs, forced gate, rollback =="
# Full staged-rollout lifecycle against a live daemon: the plan's first
# health gate is forced to fail, so the run must commit a wave, fail the
# gate, roll every admitted link back, and journal the whole chain.
ROLL_DIR="$(mktemp -d)"
ROLL_SOCK="$ROLL_DIR/rwc.sock"
# The proposal must land while the run is live, so the run has to last
# a few hundred milliseconds of wall time: 20 sim-days.  Most TE
# recomputes are solve-memo hits, so 2 sim-days finish in ~0.1 s.
"$RWC" serve --days 20 --policy adaptive-stock --faults default --slo default \
  --journal "$ROLL_DIR/journal.jsonl" --socket "$ROLL_SOCK" \
  > "$ROLL_DIR/serve.out" &
ROLL_PID=$!
for _ in $(seq 1 100); do [ -S "$ROLL_SOCK" ] && break; sleep 0.1; done
[ -S "$ROLL_SOCK" ]
# Propose (retrying across the socket-up -> run-live startup gap), then
# approve.  Both are journal-first: the intent lands in the journal at
# RPC time and the effect applies at the next sample boundary.
PROPOSED=no
for _ in $(seq 1 50); do
  if "$RWC" watch --socket "$ROLL_SOCK" --rpc rollout.propose \
    --params '{"plan":"wave=2,bake=1800,fail-gate=1"}' 2>/dev/null \
    | grep -q '"rid"'; then PROPOSED=yes; break; fi
  sleep 0.1
done
[ "$PROPOSED" = yes ]
"$RWC" watch --socket "$ROLL_SOCK" --rpc rollout.approve | grep -q '"queued"'
# The run is short enough to finish on its own; its report must show the
# forced gate failure and the rollback it triggered.
for _ in $(seq 1 300); do
  grep -q 'rollout:' "$ROLL_DIR/serve.out" 2>/dev/null && break; sleep 0.2
done
grep -q 'gate-fail=1' "$ROLL_DIR/serve.out"
grep -Eq 'rolled-back= *[1-9]' "$ROLL_DIR/serve.out"
"$RWC" watch --socket "$ROLL_SOCK" --rpc server.shutdown > /dev/null
wait "$ROLL_PID"
# The journal must reconstruct the full chain for rollout 1.
ROLL_EXPLAIN="$(mktemp)"
"$RWC" explain --journal "$ROLL_DIR/journal.jsonl" --rollout 1 > "$ROLL_EXPLAIN"
grep -q 'rollout 1 chain:' "$ROLL_EXPLAIN"
grep -q '\[rollout\] proposed' "$ROLL_EXPLAIN"
grep -q '\[rollout\] approved' "$ROLL_EXPLAIN"
grep -q '\[rollout\] wave-committed' "$ROLL_EXPLAIN"
grep -q '\[rollout\] gate-failed' "$ROLL_EXPLAIN"
grep -q '\[rolled-back\] rolled-back' "$ROLL_EXPLAIN"
rm -f "$ROLL_EXPLAIN"
rm -rf "$ROLL_DIR"

echo "== obs overhead gate: bench --obs-only (ns budgets) =="
dune exec bench/main.exe -- --obs-only

echo "== perf gate: quick sweep vs committed BENCH_baseline.json =="
# Same deterministic workload that produced the committed baseline
# (seed, sizes and sim-days are part of the preset), diffed under the
# generous --ci tolerances: counts must match, timings may wobble a
# lot between runners but a blowup past 5x still fails the build.
# Refresh procedure on an intended perf change: DESIGN.md section 13.
BENCH_NEW="$(mktemp)"
dune exec bin/rwc.exe -- bench --quick --label baseline --out "$BENCH_NEW"
dune exec bin/rwc.exe -- perf diff --ci BENCH_baseline.json "$BENCH_NEW"
rm -f "$BENCH_NEW"

echo "== ci.sh: all green =="
