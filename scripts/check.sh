#!/bin/sh
# Full verification gate: build, run every test suite, smoke-check
# the fault-injection and recovery CLI scenarios and their exit-code
# protocol (0 clean, 1 audit issues, 2 runtime error, 3 deadlock or
# rank failure, 4 recovered but degraded, 9 silent data corruption
# detected but unrecovered), then run the gated bench figures and check
# bench/gates.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

PARAD="dune exec bin/parad.exe --"
expect_exit() {
  want=$1
  shift
  echo "== parad $* (expect exit $want) =="
  set +e
  $PARAD "$@" > /tmp/parad-check.out 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: parad $* exited $got, expected $want"
    cat /tmp/parad-check.out
    exit 1
  fi
}

COMMON="--flavor mpi --ranks 4 --size 2 --iters 2"

# faultless run is clean
expect_exit 0 faults --plan none $COMMON

# recoverable drops: same gradient, clean audit
expect_exit 0 faults --plan drop-retry $COMMON
grep -q "retries=" /tmp/parad-check.out || {
  echo "FAIL: drop-retry run did not report retries"
  exit 1
}

# a duplicated message leaves an unmatched send -> dirty audit
expect_exit 1 faults --plan dup $COMMON

# killing a rank without a supervisor -> structured rank-failure report
expect_exit 3 faults --plan kill $COMMON
grep -q "rank failure" /tmp/parad-check.out || {
  echo "FAIL: kill run printed no structured rank-failure notification"
  exit 1
}

# losing every message from a rank deadlocks too, with lost messages
# named in the audit
expect_exit 3 faults --plan blackhole $COMMON
grep -q "lost message" /tmp/parad-check.out || {
  echo "FAIL: blackhole run named no lost messages"
  exit 1
}

# seeded plans are deterministic: two runs, byte-identical output
$PARAD faults --plan blackhole $COMMON > /tmp/parad-a.out 2>&1 || true
$PARAD faults --plan blackhole $COMMON > /tmp/parad-b.out 2>&1 || true
cmp -s /tmp/parad-a.out /tmp/parad-b.out || {
  echo "FAIL: blackhole diagnosis differs across reruns"
  diff /tmp/parad-a.out /tmp/parad-b.out || true
  exit 1
}

# --dry-run parses the spec grammar, prints the plan, and runs nothing
expect_exit 0 faults --plan "kill:victim=2,at=500,kill=3@9000" --dry-run $COMMON
grep -q "kill rank 3 at t>=9000" /tmp/parad-check.out || {
  echo "FAIL: dry-run did not print the parsed kill overrides"
  exit 1
}
expect_exit 2 faults --plan "kill:bogus=1" --dry-run $COMMON

# the same kill plan under the supervised driver recovers: exit 0 and a
# restart history instead of a rank-failure abort
expect_exit 0 recover --app lulesh --plan kill $COMMON
grep -q "recovery: 1 restart(s)" /tmp/parad-check.out || {
  echo "FAIL: recover run reported no restart"
  exit 1
}

# a later kill restores from a globally-consistent checkpoint (warm)
COMMON3="--flavor mpi --ranks 4 --size 2 --iters 3"
expect_exit 0 recover --app lulesh --plan "kill:victim=2,at=80000" $COMMON3
grep -q "resumed from checkpoint" /tmp/parad-check.out || {
  echo "FAIL: warm recover did not resume from a checkpoint"
  exit 1
}

# the recovered gradient equals the faultless one bit-for-bit
$PARAD grad $COMMON3 2>/dev/null | grep "d total" > /tmp/parad-clean.out
grep "d total" /tmp/parad-check.out > /tmp/parad-recovered.out
cmp -s /tmp/parad-clean.out /tmp/parad-recovered.out || {
  echo "FAIL: recovered gradient differs from the faultless gradient"
  diff /tmp/parad-clean.out /tmp/parad-recovered.out || true
  exit 1
}

# more kills than the restart budget -> the failure surfaces, exit 3
expect_exit 3 recover --app lulesh --plan "kill:kill=2,kill=3" --max-restarts 1 $COMMON
grep -q "unrecovered after 1 restart" /tmp/parad-check.out || {
  echo "FAIL: exhausted restart budget not reported"
  exit 1
}

# ---- ParSan sanitizer gate (exit 5 = miscompilation, 4 = degraded) ----

SAN_OMP="--app lulesh --flavor omp --threads 4 --size 3 --iters 2"

# clean sanitized primal+gradient runs: zero findings
expect_exit 0 sanitize $SAN_OMP --primal
grep -q "sanitizer: 0 findings" /tmp/parad-check.out || {
  echo "FAIL: sanitized lulesh primal reported findings"
  exit 1
}
expect_exit 0 sanitize $SAN_OMP
grep -q "sanitizer: 0 findings" /tmp/parad-check.out || {
  echo "FAIL: sanitized lulesh gradient reported findings"
  exit 1
}
expect_exit 0 sanitize --app bude --threads 4
grep -q "sanitizer: 0 findings" /tmp/parad-check.out || {
  echo "FAIL: sanitized bude gradient reported findings"
  exit 1
}

# the abl-tl ablation (every accumulation atomic) must also come up clean
expect_exit 0 sanitize $SAN_OMP --atomic-always

# the seeded inverse (assume every shadow thread-private) is a
# miscompilation RaceSan's static/dynamic cross-validation must catch
expect_exit 5 sanitize $SAN_OMP --assume-private
grep -q "miscompilation" /tmp/parad-check.out || {
  echo "FAIL: assume-private run reported no miscompilation"
  exit 1
}
grep -q "claimed buffer" /tmp/parad-check.out || {
  echo "FAIL: miscompilation finding did not name the refuted claim"
  exit 1
}

# GradSan: NaN-injected degrade run quarantines and exits 4 ...
expect_exit 4 sanitize $SAN_OMP --inject-nan 5 --mode degrade
grep -q "quarantined=1" /tmp/parad-check.out || {
  echo "FAIL: degrade run did not quarantine the injected NaN"
  exit 1
}
# ... while strict mode aborts at the first origin, exit 2
expect_exit 2 sanitize $SAN_OMP --inject-nan 5 --mode strict
grep -q "gradient-integrity violation" /tmp/parad-check.out || {
  echo "FAIL: strict run did not report the first-origin provenance"
  exit 1
}

# sanitizing composes with fault injection: drop-retry stays clean
expect_exit 0 sanitize --app lulesh $COMMON --plan drop-retry
grep -q "sanitizer: 0 findings" /tmp/parad-check.out || {
  echo "FAIL: sanitized drop-retry run reported findings"
  exit 1
}

# out-of-range fault targets are rejected loudly, not silently inert
expect_exit 2 faults --plan "kill:victim=9" --dry-run $COMMON
grep -q "out of range" /tmp/parad-check.out || {
  echo "FAIL: out-of-range victim not rejected"
  exit 1
}

# ---- silent-data-corruption envelope (exit 9 = corrupted) ----

# an unsupervised bit flip into sealed cache memory must surface as a
# structured corruption notice, never a silently wrong gradient
expect_exit 9 grad $COMMON --plan "none:flip=1@40@31@50"
grep -q "silent data corruption" /tmp/parad-check.out || {
  echo "FAIL: unsupervised flip printed no corruption notice"
  exit 1
}

# the same flip under the supervised driver restarts from a verified
# snapshot and reproduces the faultless gradient bit-for-bit
expect_exit 0 recover --app lulesh --plan "none:flip=1@40@31@50,retries=5" $COMMON
grep -q "sdc_inj=1 sdc_det=1 sdc_rec=1" /tmp/parad-check.out || {
  echo "FAIL: supervised flip not detected-and-recovered"
  exit 1
}
grep "d total" /tmp/parad-check.out > /tmp/parad-sdc.out
$PARAD grad $COMMON 2>/dev/null | grep "d total" > /tmp/parad-clean4.out
cmp -s /tmp/parad-clean4.out /tmp/parad-sdc.out || {
  echo "FAIL: flip-recovered gradient differs from the faultless one"
  diff /tmp/parad-clean4.out /tmp/parad-sdc.out || true
  exit 1
}

# a damaged in-flight message is caught by its checksum trailer and
# retransmitted in place: clean exit, retransmit counted
expect_exit 0 faults --plan "none:corrupt-msg=1@9" $COMMON
grep -q "retrans=1" /tmp/parad-check.out || {
  echo "FAIL: corrupt-msg run counted no retransmit"
  exit 1
}

# sticky damage re-corrupts every retransmit: the ladder exhausts and
# the run aborts with the corruption notice, exit 9
expect_exit 9 faults --plan "none:retries=2,corrupt-msg=1@9@sticky" $COMMON
grep -q "corrupt" /tmp/parad-check.out || {
  echo "FAIL: sticky corruption printed no notice"
  exit 1
}

# duplicate scalar keys in a plan spec are a conflict, not last-wins
expect_exit 2 faults --plan "kill:at=0,at=500" --dry-run $COMMON
grep -q "at most once" /tmp/parad-check.out || {
  echo "FAIL: duplicate scalar key not rejected"
  exit 1
}

# ---- seeded chaos-soak smoke ----
# A short deterministic soak: randomized fault plans x checkpoint
# schedules; every trial must end bit-identical or as a classified clean
# abort. Any unclassified outcome exits 1.

echo "== chaos soak (seeded smoke) =="
expect_exit 0 soak --trials 12 --seed 42
tail -n 3 /tmp/parad-check.out

# ---- one-shot deadline protocol (exit 6) ----
# A virtual budget far below the work aborts with the documented
# deadline exit code; a non-positive deadline is a flag parse error.

expect_exit 6 grad --flavor mpi --ranks 2 --iters 2 --deadline-cycles 500
grep -q "deadline exceeded" /tmp/parad-check.out || {
  echo "FAIL: busted deadline printed no structured report"
  exit 1
}
expect_exit 124 grad --flavor seq --deadline-ms 0
expect_exit 0 grad --flavor seq --size 2 --iters 1 --deadline-cycles 1000000000

# ---- one gradient body: --seeds 1 is the plain gradient ----
# The plain and the seeded CLI paths share the k-wide body; at one lane
# they must print the same cycle counts and adjoints.

expect_exit 0 grad --flavor omp --size 2 --iters 2
grep -E "gradient [0-9]+ cycles|d total / d e" /tmp/parad-check.out \
  > /tmp/parad-plain.out
expect_exit 0 grad --flavor omp --size 2 --iters 2 --seeds 1
grep -E "gradient [0-9]+ cycles|d total / d e" /tmp/parad-check.out \
  > /tmp/parad-seeds1.out
[ "$(wc -l < /tmp/parad-plain.out)" -eq 2 ] || {
  echo "FAIL: plain grad printed no cycle or adjoint line"
  exit 1
}
cmp -s /tmp/parad-plain.out /tmp/parad-seeds1.out || {
  echo "FAIL: grad --seeds 1 differs from the plain gradient"
  diff /tmp/parad-plain.out /tmp/parad-seeds1.out
  exit 1
}

# ---- one gradient on both substrates: --engine seq is the interpreter ----
# The lowered engine must print the interpreter's cycle counts and
# adjoints on the MPI and hybrid paths (memory ops, adjoint exchange,
# fork members).

for args in "--flavor mpi --ranks 2 --size 2 --iters 2" \
  "--flavor hybrid --ranks 2 --threads 2 --size 2 --iters 2"; do
  expect_exit 0 grad $args
  grep -E "gradient [0-9]+ cycles|d total / d e" /tmp/parad-check.out \
    > /tmp/parad-interp.out
  expect_exit 0 grad $args --engine seq
  grep -E "gradient [0-9]+ cycles|d total / d e" /tmp/parad-check.out \
    > /tmp/parad-seq.out
  [ "$(wc -l < /tmp/parad-interp.out)" -eq 2 ] || {
    echo "FAIL: grad $args printed no cycle or adjoint line"
    exit 1
  }
  cmp -s /tmp/parad-interp.out /tmp/parad-seq.out || {
    echo "FAIL: grad $args --engine seq differs from the interpreter"
    diff /tmp/parad-interp.out /tmp/parad-seq.out
    exit 1
  }
done

# ---- gradient-service smoke (serve --stdin) ----
# A mixed batch through the real request path: every line, valid or
# hostile, must come back classified, and the warm repeat must carry
# the cold request's digest bit-for-bit.

echo "== serve smoke (stdin batch) =="
printf '%s\n' \
  '{"id": 1, "flavor": "mpi", "nranks": 2, "niter": 2}' \
  '{"id": 2, "flavor": "mpi", "nranks": 2, "niter": 2}' \
  '{"id": 3, "flavor": "cuda"}' \
  '{"id": 4, "flavor": "mpi", "nranks": 2, "faults": "blackhole"}' \
  '{"id": 5, "flavor": "mpi", "nranks": 2, "deadline_cycles": 100}' \
  'garbage that is not json' \
  | $PARAD serve --stdin > /tmp/parad-serve.out 2>&1 || {
  echo "FAIL: serve --stdin crashed on the smoke batch"
  cat /tmp/parad-serve.out
  exit 1
}
for want in '"id":1,"class":"ok"' '"id":2,"class":"ok"' \
  '"id":3,"class":"invalid"' '"id":4,"class":"deadlock"' \
  '"id":5,"class":"deadline"' '"class":"invalid","code":2.*bad JSON' \
  '"event":"drained"'; do
  grep -q "$want" /tmp/parad-serve.out || {
    echo "FAIL: serve smoke output lacks $want"
    cat /tmp/parad-serve.out
    exit 1
  }
done
D1=$(grep '"id":1' /tmp/parad-serve.out | grep -o '"digest":"[0-9a-f]*"')
D2=$(grep '"id":2' /tmp/parad-serve.out | grep -o '"digest":"[0-9a-f]*"')
[ -n "$D1" ] && [ "$D1" = "$D2" ] || {
  echo "FAIL: warm digest differs from cold ($D1 vs $D2)"
  exit 1
}
grep -q '"id":2,"class":"ok","code":0,[^}]*"cached":true' /tmp/parad-serve.out || {
  echo "FAIL: repeat request did not hit the plan cache"
  exit 1
}

# ---- slam soak: the ISSUE 7 acceptance criterion ----
# >= 50 seeded mixed requests: everything classified, zero daemon
# crashes, breaker tripped and recovered, warm bit-identical to cold.

echo "== slam soak (50 seeded chaos requests) =="
expect_exit 0 slam --requests 50 --seed 42
tail -n 8 /tmp/parad-check.out

# ---- bench regression gates ----
# Every floor and ceiling lives in bench/gates. Run each figure it
# names once (quick, in file order: the gates are grouped by figure),
# then check every gate against the BENCH_<figure>.json files just
# written.

for fig in $(sed -n 's/^\([a-z0-9_][a-z0-9_]*\)[[:space:]].*/\1/p' bench/gates | uniq); do
  echo "== bench --quick --figure $fig =="
  dune exec bench/main.exe -- --quick --figure "$fig" > /tmp/parad-bench.out 2>&1 || {
    echo "FAIL: $fig benchmark did not run"
    cat /tmp/parad-bench.out
    exit 1
  }
  tail -n 12 /tmp/parad-bench.out
done

echo "== bench gates =="
dune exec bench/check_gates.exe

# the bench driver rejects a malformed command line (exit 2) instead of
# running with defaults
for args in "--figure" "--figure nosuch" "--figure ablation --recompute-depth x"; do
  set +e
  dune exec bench/main.exe -- $args > /tmp/parad-bench.out 2>&1
  got=$?
  set -e
  [ "$got" -eq 2 ] || {
    echo "FAIL: bench/main.exe $args exited $got, expected 2"
    cat /tmp/parad-bench.out
    exit 1
  }
done

echo "all checks passed"
