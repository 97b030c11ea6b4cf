#!/bin/sh
# Tier-1 gate: everything builds, every test passes, and the CLI can
# actually answer the paper's worked examples end to end.
set -eu

dune build
dune runtest

# Smoke: the zoo must run and exit 0 (it exercises every engine,
# including the Monte-Carlo fallback's deterministic default seed).
dune exec bin/rw.exe -- zoo > /dev/null

# Smoke: one explicit Monte-Carlo query, reproducible from its seed.
dune exec bin/rw.exe -- query \
  --kb examples/kb/hepatitis.kb --query 'Hep(Eric)' \
  --engine mc --seed 1 > /dev/null

# Differential fuzz: a fixed-seed budgeted sweep of the metamorphic
# oracle suite (engine agreement, duality, canonicalization, cache,
# convergence, parser totality, explain-trace consistency, warm-vs-fresh
# compiled-artifact answer identity, belief-change session soundness).
# Any violation fails the gate and the
# report prints the shrunk counterexample. ~3.5 min on a 2-vCPU box
# (case cost is long-tailed — a few generated KBs dominate); the
# deeper 500-case sweep is run manually (see EXPERIMENTS.md). Runs
# through the domain pool (--jobs 2) so the parallel driver is part of
# the gate.
dune exec bin/rw.exe -- fuzz --seed 42 --cases 20 --jobs 2

# Agreement pin: the 500-case agreement-oracle sweep that used to lose
# 3 cases to the MC importance-tilt misses on near-degenerate KBs
# (seeds 708734350365, 764477501514, 1096281972639 — minimized into
# test/fuzz_corpus/agreement-mc-tilt-*.case) must stay at 0 failures.
# Restricted to the agreement oracle to keep the gate's runtime
# proportionate (~7 min; the full nine-oracle 500-case sweep is
# ~45 min and stays a manual step — see EXPERIMENTS.md).
dune exec bin/rw.exe -- fuzz --seed 42 --cases 500 --oracle agreement \
  --jobs 2

# Update pin: the 500-case belief-change sweep — every generated
# assert/retract sequence must leave session answers bit-identical to
# a cold dispatch on the accumulated KB (ISSUE 9's soundness gate).
# Restricted to the update oracle for the same runtime reasons as the
# agreement pin above.
dune exec bin/rw.exe -- fuzz --seed 42 --cases 500 --oracle update \
  --jobs 2

# Whole-system simulation (doc/SIMULATION.md). Three gates:
#
# 1. Fault sweep: a pinned-seed 300-step run with the fault plane on —
#    failed and torn store writes, failed fsyncs, failed compiles,
#    failed fan-out submissions, crash-restarts — must hold every
#    invariant (exit 0; seed 3 was chosen because all five catalog
#    points fire within it, which test_sim.ml also pins).
dune exec bin/rw.exe -- sim --seed 3 --steps 300 --faults --max-size 4 \
  > /dev/null
# 2. Determinism: the same 200-step run twice must produce a
#    byte-identical event log — digests, origins, fault firings, the
#    summary line, everything.
sim1=$(dune exec bin/rw.exe -- sim --seed 42 --steps 200 --max-size 4)
sim2=$(dune exec bin/rw.exe -- sim --seed 42 --steps 200 --max-size 4)
[ "$sim1" = "$sim2" ] \
  || { echo "ci: sim event log is not deterministic" >&2; exit 1; }
# 3. Seed validation (shared with fuzz): an overflowing --seed is a
#    usage error (exit 2), never a silent wrap into a different run.
seed_rc=0
dune exec bin/rw.exe -- sim --seed 4611686018427387904 --steps 1 \
  > /dev/null 2>&1 || seed_rc=$?
[ "$seed_rc" -eq 2 ] \
  || { echo "ci: overflowing --seed must exit 2 (got $seed_rc)" >&2; exit 1; }
seed_rc=0
dune exec bin/rw.exe -- fuzz --seed=-1 --cases 1 > /dev/null 2>&1 || seed_rc=$?
[ "$seed_rc" -eq 2 ] \
  || { echo "ci: fuzz bad --seed must exit 2 (got $seed_rc)" >&2; exit 1; }

# Parallel batch smoke: the pool path end to end, answers printed in
# input order.
printf '%s\n' 'Hep(Eric)' '~Hep(Eric)' 'Jaun(Eric)' \
  | dune exec bin/rw.exe -- batch --kb examples/kb/hepatitis.kb --jobs 2 \
  > /dev/null

# Determinism: a fixed-seed Monte-Carlo query is bit-identical at any
# pool width when it terminates on its sample budget (TUTORIAL §10).
q1=$(dune exec bin/rw.exe -- query --kb examples/kb/hepatitis.kb \
  --query 'Hep(Eric)' --engine mc --seed 42 --samples 20000 --jobs 1)
q2=$(dune exec bin/rw.exe -- query --kb examples/kb/hepatitis.kb \
  --query 'Hep(Eric)' --engine mc --seed 42 --samples 20000 --jobs 2)
[ "$q1" = "$q2" ] || { echo "ci: mc answer depends on --jobs" >&2; exit 1; }

# Smoke: the NDJSON serve loop — three requests in, three well-formed
# JSON replies out, clean shutdown exit.
serve_out=$(printf '%s\n' \
  '{"id":1,"op":"query","query":"Hep(Eric)"}' \
  '{"id":2,"op":"stats"}' \
  '{"id":3,"op":"shutdown"}' \
  | dune exec bin/rw.exe -- serve --kb examples/kb/hepatitis.kb)
[ "$(printf '%s\n' "$serve_out" | wc -l)" -eq 3 ]
printf '%s\n' "$serve_out" | while IFS= read -r line; do
  case $line in
    '{'*'"ok":true'*'}') ;;
    *) echo "ci: bad serve reply: $line" >&2; exit 1 ;;
  esac
done

# Durable store: kill -9 loses nothing already answered. Session 1
# answers an explained query over a store and is SIGKILLed with no
# orderly shutdown; session 2 over the same store must serve that
# query from the durable tier with a byte-identical answer and trace
# (only the per-reply fields — elapsed_ms, cached, tier, and the
# cache-provenance facts — may differ). The server runs as the bare
# binary, not under `dune exec`, so the signal hits the real process.
store_dir=$(mktemp -d)
store="$store_dir/answers.rws"
fifo="$store_dir/requests.fifo"
out1="$store_dir/session1.out"
mkfifo "$fifo"
_build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
  --store "$store" < "$fifo" > "$out1" 2> /dev/null &
serve_pid=$!
exec 9> "$fifo"
printf '%s\n' '{"id":1,"op":"query","query":"Hep(Eric)","explain":true}' >&9
i=0
while [ ! -s "$out1" ] && [ "$i" -lt 100 ]; do
  sleep 0.1; i=$((i + 1))
done
[ -s "$out1" ] || { echo "ci: store session 1 never answered" >&2; exit 1; }
kill -9 "$serve_pid"
exec 9>&-
wait "$serve_pid" 2> /dev/null || true
# The log must scan clean after the kill — the completed append is all
# there is, no torn tail (the reply cannot precede its write-through).
_build/default/bin/rw.exe store verify "$store" > /dev/null \
  || { echo "ci: store corrupt after kill -9" >&2; exit 1; }

# The simulated version of the same story: an injected torn mid-record
# append followed by a crash-restart, replayed from the pinned corpus
# case — recovery must truncate exactly the torn tail and reproduce
# every pre-crash answer (the sim's recovery + stability invariants).
dune exec bin/rw.exe -- sim --replay test/sim_corpus/torn-restart.sim \
  > /dev/null \
  || { echo "ci: torn-restart sim replay found a violation" >&2; exit 1; }
out2=$(printf '%s\n' '{"id":1,"op":"query","query":"Hep(Eric)","explain":true}' \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      --store "$store" 2> /dev/null)
case $out2 in
  *'"tier":"store"'*) ;;
  *) echo "ci: restart did not serve from the store: $out2" >&2; exit 1 ;;
esac
strip_reply() {
  sed -e 's/"elapsed_ms":[0-9.e+-]*,\{0,1\}//g' \
      -e 's/"cached":[a-z]*,\{0,1\}//g' \
      -e 's/"tier":"[a-z-]*",\{0,1\}//g' \
      -e 's/{"ev":"fact","tag":"cache"[^}]*},\{0,1\}//g'
}
norm1=$(strip_reply < "$out1")
norm2=$(printf '%s\n' "$out2" | strip_reply)
if [ "$norm1" != "$norm2" ]; then
  echo "ci: store replay is not byte-identical" >&2
  echo "--- session 1 (killed) ---" >&2; printf '%s\n' "$norm1" >&2
  echo "--- session 2 (restart) ---" >&2; printf '%s\n' "$norm2" >&2
  exit 1
fi
rm -rf "$store_dir"

# One pool per process: a 12-item batch (past the parallel threshold,
# so it fans out) answers identically on a width-1 and a width-2
# `rw serve` pool. The request's own "jobs" field is ignored — the
# process's --jobs is the only width setting.
pool_batch='{"id":1,"op":"batch","jobs":4,"queries":["Hep(Eric)","~Hep(Eric)","Jaun(Eric)","Hep(Eric) /\\ Jaun(Eric)","Hep(Dana)","Jaun(Dana)","Hep(Eric) \\/ Hep(Dana)","Hep(Kim)","~Jaun(Eric)","Hep(Pat)","Hep(Sam)","Hep(Lou)"]}'
pool1=$(printf '%s\n' "$pool_batch" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb --jobs 1 \
      2> /dev/null | strip_reply)
pool2=$(printf '%s\n' "$pool_batch" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb --jobs 2 \
      2> /dev/null | strip_reply)
case $pool1 in
  *'"count":12'*) ;;
  *) echo "ci: 12-item batch not answered: $pool1" >&2; exit 1 ;;
esac
[ "$pool1" = "$pool2" ] \
  || { echo "ci: batch answers depend on the serve pool width" >&2; exit 1; }

# Socket serve: a listening server hammered by 4 parallel clients must
# answer everyone coherently, then survive kill -9 with a clean store.
# Each client sends the same query set over its own connection; every
# answer must be byte-identical to the single-connection session's
# (modulo the per-reply timing/tier fields), the compiled stats must
# show exactly one compile across all clients, and after the SIGKILL
# the store must verify clean and warm-restart from the durable tier.
listen_dir=$(mktemp -d)
lsock="$listen_dir/rw.sock"
lstore="$listen_dir/answers.rws"
_build/default/bin/rw.exe serve --listen "$lsock" \
  --kb examples/kb/hepatitis.kb --store "$lstore" --jobs 2 \
  2> /dev/null &
listen_pid=$!
reqs='{"op":"query","query":"Hep(Eric)"}
{"op":"query","query":"~Hep(Eric)"}
{"op":"query","query":"Jaun(Eric)"}
{"op":"query","query":"Jaun(Eric) /\\ Hep(Eric)"}'
client_pids=
i=0
while [ "$i" -lt 4 ]; do
  printf '%s\n' "$reqs" \
    | _build/default/bin/rw.exe client "$lsock" --retry 10 \
    > "$listen_dir/client$i.out" &
  client_pids="$client_pids $!"
  i=$((i + 1))
done
for pid in $client_pids; do
  wait "$pid" || { echo "ci: concurrent client failed" >&2; exit 1; }
done
single=$(printf '%s\n' "$reqs" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      2> /dev/null | strip_reply)
i=0
while [ "$i" -lt 4 ]; do
  got=$(strip_reply < "$listen_dir/client$i.out")
  if [ "$got" != "$single" ]; then
    echo "ci: concurrent client $i diverged from the single-connection session" >&2
    echo "--- single connection ---" >&2; printf '%s\n' "$single" >&2
    echo "--- client $i ---" >&2; printf '%s\n' "$got" >&2
    exit 1
  fi
  i=$((i + 1))
done
echo '{"op":"stats"}' \
  | _build/default/bin/rw.exe client "$lsock" --retry 10 \
  | grep -q '"compiles":1' \
  || { echo "ci: listen served 4 clients with more than one KB compile" >&2; exit 1; }
kill -9 "$listen_pid"
wait "$listen_pid" 2> /dev/null || true
_build/default/bin/rw.exe store verify "$lstore" > /dev/null \
  || { echo "ci: store corrupt after kill -9 of the listener" >&2; exit 1; }
warm=$(printf '%s\n' '{"op":"query","query":"Hep(Eric)"}' \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      --store "$lstore" 2> /dev/null)
case $warm in
  *'"tier":"store"'*) ;;
  *) echo "ci: restart after listener kill -9 did not serve from the store" >&2
     exit 1 ;;
esac
rm -rf "$listen_dir"

# One budget mechanism on every serve path: the first maxent query
# against a KB pays its compile, whose solver polls the deadline before
# anything else does. Under a 1 µs budget — already expired at that
# first poll, while the unbudgeted query takes a few milliseconds — it
# must degrade over --listen, where every dispatch runs on a pool
# worker, exactly as it does over stdin/stdout.
budget_dir=$(mktemp -d)
_build/default/bin/rw.exe serve --listen "$budget_dir/rw.sock" --jobs 1 \
  --budget 0.000001 --kb examples/kb/broken_arm.kb 2> /dev/null &
budget_pid=$!
budget_reply=$(echo '{"op":"query","query":"LUsable(Eric)"}' \
  | _build/default/bin/rw.exe client "$budget_dir/rw.sock" --retry 10) \
  || budget_reply="client failed"
kill "$budget_pid"
wait "$budget_pid" 2> /dev/null || true
rm -rf "$budget_dir"
case $budget_reply in
  *'"tier":"degraded"'*) ;;
  *) echo "ci: --listen did not degrade an expired budget: $budget_reply" >&2
     exit 1 ;;
esac

# The simulated face of the batch/pool surface: a failed fan-out
# submission must fail atomically and the same batch retried on the
# same pool must answer — replayed from the pinned corpus case.
dune exec bin/rw.exe -- sim --replay test/sim_corpus/pool-submit-batch.sim \
  > /dev/null \
  || { echo "ci: pool-submit sim replay found a violation" >&2; exit 1; }

# Belief-change session: a scripted session over --listen is SIGKILLed
# mid-session; a restart from the same --store replaying the same
# script must land on answers byte-identical to an uninterrupted run
# (modulo the per-reply timing/tier fields). This pins the revalidation
# write-through: the pre-kill session's answer was computed under the
# original KB digest and carried across two updates purely by
# revalidation, so the replay can only match if those re-keyed entries
# reached the store under their post-update digests.
sess_dir=$(mktemp -d)
ssock="$sess_dir/rw.sock"
sess_script='{"op":"query","query":"Hep(Eric)"}
{"op":"session_update","action":"assert","src":"Wet(Sam)"}
{"op":"query","query":"Hep(Eric)"}
{"op":"session_update","action":"assert","src":"Damp(Kim)"}
{"op":"query","query":"Hep(Eric)"}'
# Uninterrupted reference: the whole script in one serve session.
sess_ref=$(printf '%s\n' "$sess_script" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      --store "$sess_dir/ref.rws" 2> /dev/null | strip_reply)
# Interrupted run: first three lines over the socket, then kill -9.
_build/default/bin/rw.exe serve --listen "$ssock" \
  --kb examples/kb/hepatitis.kb --store "$sess_dir/live.rws" \
  2> /dev/null &
sess_pid=$!
printf '%s\n' "$sess_script" | head -n 3 \
  | _build/default/bin/rw.exe client "$ssock" --retry 10 \
  > "$sess_dir/pre-kill.out" \
  || { echo "ci: session client failed" >&2; exit 1; }
kill -9 "$sess_pid"
wait "$sess_pid" 2> /dev/null || true
_build/default/bin/rw.exe store verify "$sess_dir/live.rws" > /dev/null \
  || { echo "ci: session store corrupt after kill -9" >&2; exit 1; }
# The killed session's second query never dispatched an engine under
# the updated KB — it survived the assert by revalidation. A restart
# that replays just the update must therefore find the re-keyed answer
# in the durable tier.
revived=$(printf '%s\n' \
  '{"op":"session_update","action":"assert","src":"Wet(Sam)"}' \
  '{"op":"query","query":"Hep(Eric)"}' \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      --store "$sess_dir/live.rws" 2> /dev/null | tail -n 1)
case $revived in
  *'"tier":"store"'*) ;;
  *) echo "ci: revalidated answer not served from the store after restart: $revived" >&2
     exit 1 ;;
esac
# Full replay from the crashed store matches the uninterrupted run.
sess_replay=$(printf '%s\n' "$sess_script" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      --store "$sess_dir/live.rws" 2> /dev/null | strip_reply)
if [ "$sess_replay" != "$sess_ref" ]; then
  echo "ci: session replay after kill -9 diverged from the uninterrupted run" >&2
  echo "--- uninterrupted ---" >&2; printf '%s\n' "$sess_ref" >&2
  echo "--- replay ---" >&2; printf '%s\n' "$sess_replay" >&2
  exit 1
fi
rm -rf "$sess_dir"

# Delta reuse: evidence-only updates must carry the compiled artifact
# across digest changes — three asserts about known predicates may not
# trigger a single recompile (compiles stays 1, three carries).
sess_stats=$(printf '%s\n' \
  '{"op":"query","query":"Hep(Eric)"}' \
  '{"op":"session_update","action":"assert","src":"Jaun(Dana)"}' \
  '{"op":"session_update","action":"assert","src":"Jaun(Kim)"}' \
  '{"op":"session_update","action":"assert","src":"Jaun(Pat)"}' \
  '{"op":"query","query":"Hep(Eric)"}' \
  '{"op":"stats"}' \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      2> /dev/null)
case $(printf '%s\n' "$sess_stats" | tail -n 1) in
  *'"compiles":1'*) ;;
  *) echo "ci: evidence-only updates recompiled the artifact" >&2
     printf '%s\n' "$sess_stats" >&2; exit 1 ;;
esac
case $(printf '%s\n' "$sess_stats" | tail -n 1) in
  *'"artifact_carries":3'*) ;;
  *) echo "ci: expected 3 artifact carries" >&2
     printf '%s\n' "$sess_stats" >&2; exit 1 ;;
esac

# Bounded provenance: a cache entry keeps one fixed-size summary of the
# updates it survived, not a list. A cached Hep(Eric) outlives 200
# alternating asserts/retracts of a disjoint fact; the explained query
# after them must carry exactly one `revalidated` fact counting 200,
# and every update reply must keep the seven session_update fields.
prov_out=$(
  {
    echo '{"op":"query","query":"Hep(Eric)"}'
    i=1
    while [ "$i" -le 200 ]; do
      if [ $((i % 2)) -eq 1 ]; then act=assert; else act=retract; fi
      echo "{\"op\":\"session_update\",\"action\":\"$act\",\"src\":\"Cough(Zed)\"}"
      i=$((i + 1))
    done
    echo '{"op":"query","query":"Hep(Eric)","explain":true}'
  } | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb 2> /dev/null)
prov_updates=$(printf '%s\n' "$prov_out" | sed -n '2,201p' \
  | grep -c '^{"ok":true,"seq":[0-9]*,"digest":"[0-9a-f]*","changed":true,"revalidated":1,"evicted":0,"artifact":"[a-z]*","elapsed_ms":[0-9.e+-]*}$' \
  || true)
[ "$prov_updates" -eq 200 ] \
  || { echo "ci: $prov_updates of 200 session_update replies kept the seven wire fields" >&2
       printf '%s\n' "$prov_out" | sed -n '2,3p' >&2; exit 1; }
prov_last=$(printf '%s\n' "$prov_out" | tail -n 1)
prov_facts=$(printf '%s\n' "$prov_last" | grep -o '"tag":"revalidated"' | wc -l)
[ "$prov_facts" -eq 1 ] \
  || { echo "ci: explained hit carries $prov_facts revalidated facts, want 1" >&2
       exit 1; }
case $prov_last in
  *'"tag":"revalidated","count":200,'*) ;;
  *) echo "ci: revalidated fact does not count 200 updates: $prov_last" >&2
     exit 1 ;;
esac

# One resident snapshot: two clients stream rules answers (Hep(Eric)
# and ~Hep(Eric), 200 of each) over --listen while a third alternates
# 50 asserts and retracts of Wet(Sam). No query waits on a lock, and
# each answers for the one KB snapshot it read, so every reply must be
# ok and the rules answers, revalidated across every update, must stay
# byte-identical to a single session's (modulo the per-reply timing
# and tier fields). Maxent answers are not compared across states:
# Jaun(Eric) /\ Hep(Eric) moves in its last bits after that assert.
snap_dir=$(mktemp -d)
snap_sock="$snap_dir/rw.sock"
timeout 60 _build/default/bin/rw.exe serve --listen "$snap_sock" \
  --kb examples/kb/hepatitis.kb --jobs 2 2> /dev/null &
snap_pid=$!
snap_pair='{"op":"query","query":"Hep(Eric)"}
{"op":"query","query":"~Hep(Eric)"}'
i=0
while [ "$i" -lt 200 ]; do
  printf '%s\n' "$snap_pair"
  i=$((i + 1))
done > "$snap_dir/queries.in"
i=1
while [ "$i" -le 50 ]; do
  if [ $((i % 2)) -eq 1 ]; then act=assert; else act=retract; fi
  echo "{\"op\":\"session_update\",\"action\":\"$act\",\"src\":\"Wet(Sam)\"}"
  i=$((i + 1))
done > "$snap_dir/updates.in"
snap_pids=
for c in 0 1; do
  timeout 60 _build/default/bin/rw.exe client "$snap_sock" --retry 10 \
    < "$snap_dir/queries.in" > "$snap_dir/client$c.out" &
  snap_pids="$snap_pids $!"
done
timeout 60 _build/default/bin/rw.exe client "$snap_sock" --retry 10 \
  < "$snap_dir/updates.in" > "$snap_dir/updates.out" &
snap_pids="$snap_pids $!"
for pid in $snap_pids; do
  wait "$pid" || { echo "ci: snapshot client failed" >&2; exit 1; }
done
echo '{"op":"shutdown"}' \
  | _build/default/bin/rw.exe client "$snap_sock" --retry 10 > /dev/null
wait "$snap_pid" \
  || { echo "ci: snapshot listener did not shut down cleanly" >&2; exit 1; }
snap_single=$(printf '%s\n' "$snap_pair" \
  | _build/default/bin/rw.exe serve --kb examples/kb/hepatitis.kb \
      2> /dev/null | strip_reply | sort -u)
for c in 0 1; do
  [ "$(wc -l < "$snap_dir/client$c.out")" -eq 400 ] \
    || { echo "ci: snapshot client $c missed replies" >&2; exit 1; }
  got=$(strip_reply < "$snap_dir/client$c.out" | sort -u)
  if [ "$got" != "$snap_single" ]; then
    echo "ci: rules answers moved under concurrent updates (client $c)" >&2
    echo "--- single session ---" >&2; printf '%s\n' "$snap_single" >&2
    echo "--- client $c ---" >&2; printf '%s\n' "$got" >&2
    exit 1
  fi
done
snap_ok=$(grep -c '^{"ok":true,' "$snap_dir/updates.out" || true)
[ "$snap_ok" -eq 50 ] \
  || { echo "ci: $snap_ok of 50 concurrent updates answered ok" >&2; exit 1; }
rm -rf "$snap_dir"

# Compiled-KB tier: the compile runs outside the request budget, so a
# budget shorter than any solve still leaves the artifact resident —
# three queries against one KB compile it exactly once. (Answer
# identity of a shared artifact against a fresh one is pinned by the
# fuzzer's `compiled` oracle and the simulator's agreement invariant.)
budget_stats=$(printf '%s\n' \
  '{"op":"query","query":"Fly(Opus)"}' \
  '{"op":"query","query":"Swims(Opus)"}' \
  '{"op":"query","query":"Feathered(Opus)"}' \
  '{"op":"stats"}' \
  | _build/default/bin/rw.exe serve --kb examples/kb/taxonomy.kb \
      --budget 0.0001 2> /dev/null)
case $(printf '%s\n' "$budget_stats" | tail -n 1) in
  *'"compiles":1'*) ;;
  *) echo "ci: a short budget kept the compiled artifact from warming" >&2
     printf '%s\n' "$budget_stats" >&2; exit 1 ;;
esac

# Smoke: `rw compile` builds and describes the artifact, solving its
# entropy profile — every tolerance in the schedule must solve on this
# KB.
dune exec bin/rw.exe -- compile --kb examples/kb/hepatitis.kb --json \
  | grep -q '"presolved":6'

# Smoke: the largest corpus KB (128 atoms, 10 priced constraint rows)
# solves its whole schedule — the maxent dual converges at every
# tolerance instead of reporting one infeasible.
dune exec bin/rw.exe -- compile --kb examples/kb/taxonomy.kb \
  | grep -q '6 tolerance(s) pre-solved, 0 infeasible'

# Smoke: --explain prints the derivation and --explain-json carries a
# machine-readable trace that names the winning reference class and
# the paper theorem (the Tweety acceptance criterion).
dune exec bin/rw.exe -- query --kb examples/kb/tweety.kb \
  --query 'Fly(Tweety)' --explain | grep -q 'id=5.16'
dune exec bin/rw.exe -- query --kb examples/kb/tweety.kb \
  --query 'Fly(Tweety)' --explain-json | grep -q '"engine-selected"'

# Smoke: on a top-level disjunctive KB the maxent-profile fact shows
# the dominant disjunct's maxent point (its two constraint rows), not
# the unconstrained uniform point of the whole disjunction.
disj_dir=$(mktemp -d)
printf '%s\n' \
  '(||LUsable(x)||_x ~=_1 0.2 /\ LBroken(Eric)) \/ (||LUsable(x)||_x ~=_1 0.2 /\ RBroken(Eric))' \
  > "$disj_dir/broken_arm_or.kb"
dune exec bin/rw.exe -- query --kb "$disj_dir/broken_arm_or.kb" \
  --query 'LUsable(Eric)' --explain \
  | grep -q 'maxent-profile .* constraints=2 ' \
  || { echo "ci: disjunctive maxent-profile is not the dominant disjunct's" >&2
       exit 1; }
rm -rf "$disj_dir"

# Docs: the TUTORIAL §11 trace snippet is regenerated from the binary
# and diffed against the committed copy, so the walkthrough can never
# drift from what `rw query --explain` actually prints. Timings are
# masked — the one non-deterministic part of a trace: span durations
# and timing fields such as the compiled-kb fact's compile_ms.
fresh=$(dune exec bin/rw.exe -- query --kb examples/kb/tweety.kb \
  --query 'Fly(Tweety)' --explain \
  | sed -e 's/[0-9][0-9.]* ms/_ ms/g' -e 's/_ms=[^ ]*/_ms=_/g')
committed=$(sed -n '/trace-snippet:begin/,/trace-snippet:end/p' doc/TUTORIAL.md \
  | sed -e '/trace-snippet/d' -e '/^```/d')
if [ "$fresh" != "$committed" ]; then
  echo "ci: doc/TUTORIAL.md §11 trace snippet is stale" >&2
  echo "--- committed ---" >&2
  printf '%s\n' "$committed" >&2
  echo "--- regenerated ---" >&2
  printf '%s\n' "$fresh" >&2
  exit 1
fi

# Docs: the odoc API reference must build where odoc is available;
# the gate skips gracefully on toolchains without it.
if command -v odoc > /dev/null 2>&1; then
  dune build @doc
else
  echo "ci: odoc not installed; skipping dune build @doc"
fi

echo "ci: all green"
