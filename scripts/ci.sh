#!/usr/bin/env bash
# Tier-1 verification, hermetic: the workspace has zero registry
# dependencies (everything external was replaced by crates/util), so
# every step runs with --offline and must succeed with no network
# access at all. See DESIGN.md "Dependencies" and README "Building".
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
# --no-fail-fast: every test binary runs even after one fails, so a
# single failure cannot hide later ones; any failure still fails CI.
cargo test -q --offline --no-fail-fast

echo "== benches compile (offline) =="
cargo bench --no-run --offline

echo "== difftest fuzz smoke (64 cases, deterministic) =="
# Bounded differential-fuzzing run: every pipeline stage cross-checked
# against the IR interpreter over 64 seeded cases (see docs/TESTING.md).
# Run twice with the same master seed: the logs must be byte-identical
# — the suite prints no timing or host state, and a mismatch means a
# determinism regression somewhere in the stack.
log_dir="$(mktemp -d)"
trap 'rm -rf "$log_dir"' EXIT
cargo run --release --offline -q -p casted-bench --bin difftest -- \
  --cases 64 --seed 0xCA57ED > "$log_dir/fuzz1.log"
cargo run --release --offline -q -p casted-bench --bin difftest -- \
  --cases 64 --seed 0xCA57ED > "$log_dir/fuzz2.log"
cmp "$log_dir/fuzz1.log" "$log_dir/fuzz2.log"
tail -n 1 "$log_dir/fuzz1.log"

echo "== perfbench correctness (self-tests + pinned simulated statistics + campaign tallies + serve replies) =="
# perfbench is its own workspace (perfbench/Cargo.toml). Its tests cover
# the metric-doc coverage and the corrupted-expected self-tests; a short
# perf_grid run then checks every cell's output against the interpreter
# ("correct" in the last-line JSON verdict) and its cycles/dyn insns/
# bundles/nop slots against the counts pinned in perfbench/expected/
# (the "pinned work counts" line).
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload perf_grid --seed 1 --seconds 2 --trace 0 > "$log_dir/perfbench.out"
if ! tail -n 1 "$log_dir/perfbench.out" | grep -q '"correct": true' \
  || ! grep -q '^pinned work counts: unchanged$' "$log_dir/perfbench.out"; then
  echo "perfbench perf_grid check failed:" >&2
  cat "$log_dir/perfbench.out" >&2
  exit 1
fi
echo "perfbench perf_grid correct, pinned counts unchanged"
# serve_mix drives a live casted-serve through the connection core and
# checks every reply byte for byte against the direct service_api
# result ("correct" in the last-line verdict).
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload serve_mix --seed 1 --seconds 2 --trace 0 > "$log_dir/perfbench_serve.out"
if ! tail -n 1 "$log_dir/perfbench_serve.out" | grep -q '"correct": true'; then
  echo "perfbench serve_mix check failed:" >&2
  cat "$log_dir/perfbench_serve.out" >&2
  exit 1
fi
echo "perfbench serve_mix correct"
# coverage_campaign runs the 42 Fig. 9 cells as campaigns on the default
# engine and checks every tally against the reference engine's, pinned
# under perfbench/expected/ ("correct" in the last-line verdict). Its
# pinned engine work counts are printed, not gated: engine changes may
# move them while the tallies stay exact.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload coverage_campaign --seed 1 --seconds 2 --trace 0 > "$log_dir/perfbench_cov.out"
if ! tail -n 1 "$log_dir/perfbench_cov.out" | grep -q '"correct": true'; then
  echo "perfbench coverage_campaign check failed:" >&2
  cat "$log_dir/perfbench_cov.out" >&2
  exit 1
fi
grep -E '^(pinned work counts|!!! simulated statistics changed)' "$log_dir/perfbench_cov.out" || true
echo "perfbench coverage_campaign correct"

echo "== metrics snapshot determinism (quick sweep, counter-only) =="
# Two metrics-enabled quick sweeps: the counter-only snapshots must be
# byte-identical (counters record what work was done, never how fast —
# see docs/OBSERVABILITY.md). The full export is written once so the
# exporter path runs too; its timings are host-noise and are not
# compared.
cargo run --release --offline -q -p casted-bench --bin summary -- \
  --quick --metrics "$log_dir/metrics_full.json" \
  --metrics-counters "$log_dir/counters1.json" > /dev/null
cargo run --release --offline -q -p casted-bench --bin summary -- \
  --quick --metrics-counters "$log_dir/counters2.json" > /dev/null
cmp "$log_dir/counters1.json" "$log_dir/counters2.json"
test -s "$log_dir/metrics_full.json"
grep -c '"' "$log_dir/counters1.json" > /dev/null
echo "counter snapshots identical ($(grep -c ':' "$log_dir/counters1.json") counters)"

echo "== campaign engine cross-check (fig9 --quick, both engines) =="
# The checkpointed engine (snapshots where the trials land,
# fast-forward replay, convergence pruning — see docs/PERFORMANCE.md)
# must reproduce the reference engine byte for byte: identical
# coverage CSV, and identical counter snapshot once the engine's own
# work counters (faults.checkpoint.* and faults.sections.*, the only
# permitted differences) are stripped.
for engine in reference checkpointed; do
  mkdir -p "$log_dir/eng_$engine"
  cargo run --release --offline -q -p casted-bench --bin fig9 -- \
    --quick --engine "$engine" --out "$log_dir/eng_$engine" \
    --metrics-counters "$log_dir/eng_$engine/counters.json" > /dev/null
  grep -v 'faults\.\(checkpoint\|sections\)\.' "$log_dir/eng_$engine/counters.json" \
    > "$log_dir/eng_$engine/common.json"
done
cmp "$log_dir/eng_reference/fig9.csv" "$log_dir/eng_checkpointed/fig9.csv"
cmp "$log_dir/eng_reference/common.json" "$log_dir/eng_checkpointed/common.json"
# The quick grid must actually cover the recovery schemes and the
# 4-cluster machine (docs/SCHEMES.md): TMRED rows must report
# corrections (last CSV column nonzero somewhere), RBED rows must
# report zero silent corruptions (its exactness property), and both
# cluster counts must appear.
grep -q ',TMRED,' "$log_dir/eng_reference/fig9.csv"
grep -q ',RBED,'  "$log_dir/eng_reference/fig9.csv"
awk -F, 'NR>1 && $2=="TMRED" { c+=$NF } END { exit !(c>0) }' "$log_dir/eng_reference/fig9.csv"
awk -F, 'NR>1 && $2=="RBED" && $9!=0 { bad=1 } END { exit bad }' "$log_dir/eng_reference/fig9.csv"
awk -F, 'NR>1 && $5==2 { two=1 } NR>1 && $5==4 { four=1 } END { exit !(two && four) }' \
  "$log_dir/eng_reference/fig9.csv"
echo "engines byte-identical over the quick grid, recovery schemes + 4-cluster cells included"

echo "== incremental section cache cross-check (fig9 --quick --incremental, cold + warm) =="
# The compositional section cache (docs/INCREMENTAL.md) must reproduce
# the engines' bytes too: a cold run (empty store) and a warm rerun
# (fully populated store, recombining cached section tallies) must both
# emit the reference engine's exact coverage CSV and the same stripped
# counter snapshot — and the warm run must actually hit the cache. The
# warm rerun recombines from the program record without simulating at
# all, so its snapshot carries no sim.* counters; those are stripped
# from both sides of the warm comparison only (the cold run still
# flushes the golden run's sim.* exactly like the engines do).
for pass in cold warm; do
  mkdir -p "$log_dir/inc_$pass"
  cargo run --release --offline -q -p casted-bench --bin fig9 -- \
    --quick --incremental --section-cache "$log_dir/section-store" \
    --out "$log_dir/inc_$pass" \
    --metrics-counters "$log_dir/inc_$pass/counters.json" > /dev/null
  grep -v 'faults\.\(checkpoint\|sections\)\.' "$log_dir/inc_$pass/counters.json" \
    > "$log_dir/inc_$pass/common.json"
  cmp "$log_dir/eng_reference/fig9.csv" "$log_dir/inc_$pass/fig9.csv"
done
cmp "$log_dir/eng_reference/common.json" "$log_dir/inc_cold/common.json"
grep -v '"sim\.' "$log_dir/eng_reference/common.json" > "$log_dir/inc_warm/ref_nosim.json"
grep -v '"sim\.' "$log_dir/inc_warm/common.json" > "$log_dir/inc_warm/warm_nosim.json"
cmp "$log_dir/inc_warm/ref_nosim.json" "$log_dir/inc_warm/warm_nosim.json"
warm_hits="$(sed -n 's/.*"faults\.sections\.hit": \([0-9]*\).*/\1/p' "$log_dir/inc_warm/counters.json")"
if [ -z "$warm_hits" ] || [ "$warm_hits" -lt 1 ]; then
  echo "warm incremental rerun hit no cached sections (got '${warm_hits:-none}')" >&2
  exit 1
fi
# The cold run must exercise the escape path too: trials that leave
# their section still diverged and replay over the whole program.
cold_escapes="$(sed -n 's/.*"faults\.sections\.escaped": \([0-9]*\).*/\1/p' "$log_dir/inc_cold/counters.json")"
if [ -z "$cold_escapes" ] || [ "$cold_escapes" -lt 1 ]; then
  echo "cold incremental run replayed no escape (got '${cold_escapes:-none}')" >&2
  exit 1
fi
echo "incremental cache byte-identical to reference, cold and warm ($warm_hits warm section hits, $cold_escapes cold escapes)"

echo "== staged compile pipeline: cold+warm byte-compare (offline) =="
# Cold and warm castedc runs through the content-addressed artifact
# store must print byte-identical output (the stage-exactness
# guarantee, docs/PIPELINE.md); the warm run and a run of a copy in
# another directory must answer all four stages (frontend, ed, sched,
# ra) from the store, a machine-config-only
# rerun must skip the front end entirely (no frontend.* metric) while
# hitting exactly frontend and ed, and a newline edit must re-run only
# the front end.
staged_src="$log_dir/staged.mc"
cat > "$staged_src" <<'EOF'
fn main() { var s: int = 0; for i in 0..50 { s = s + i * i; } out(s); }
EOF
for pass in cold warm; do
  cargo run --release --offline -q -p casted --bin castedc -- \
    run "$staged_src" --scheme casted --issue 2 --delay 2 \
    --artifact-cache "$log_dir/artifacts" \
    --metrics-counters "$log_dir/staged_$pass.json" > "$log_dir/staged_$pass.out"
done
cmp "$log_dir/staged_cold.out" "$log_dir/staged_warm.out"
stage_hits() { # $1: metrics file
  sed -n 's/.*"compile\.stages\.hit": \([0-9]*\).*/\1/p' "$1"
}
warm_stage_hits="$(stage_hits "$log_dir/staged_warm.json")"
if [ "$warm_stage_hits" != 4 ]; then
  echo "warm staged compile expected exactly 4 stage hits (got '${warm_stage_hits:-none}')" >&2
  exit 1
fi
# The same file under another directory: the module is named by the
# file stem, not the path, so every stage answers from the store and
# the output is the cold run's.
mkdir -p "$log_dir/copy"
cp "$staged_src" "$log_dir/copy/staged.mc"
cargo run --release --offline -q -p casted --bin castedc -- \
  run "$log_dir/copy/staged.mc" --scheme casted --issue 2 --delay 2 \
  --artifact-cache "$log_dir/artifacts" \
  --metrics-counters "$log_dir/staged_copy.json" > "$log_dir/staged_copy.out"
cmp "$log_dir/staged_cold.out" "$log_dir/staged_copy.out"
copy_hits="$(stage_hits "$log_dir/staged_copy.json")"
if [ "$copy_hits" != 4 ]; then
  echo "copied-file rerun expected exactly 4 stage hits (got '${copy_hits:-none}')" >&2
  exit 1
fi
cargo run --release --offline -q -p casted --bin castedc -- \
  run "$staged_src" --scheme casted --issue 4 --delay 1 \
  --artifact-cache "$log_dir/artifacts" \
  --metrics "$log_dir/staged_cfg.json" > /dev/null
if grep -q '"frontend\.' "$log_dir/staged_cfg.json"; then
  echo "config-only rerun did front-end work" >&2
  exit 1
fi
cfg_hits="$(stage_hits "$log_dir/staged_cfg.json")"
if [ "$cfg_hits" != 2 ]; then
  echo "config-only rerun expected exactly 2 stage hits (got '${cfg_hits:-none}')" >&2
  exit 1
fi
# A newline appended in place: the front end re-runs, the unchanged
# module keeps ed, sched and ra warm, and the output is the cold run's.
echo >> "$staged_src"
cargo run --release --offline -q -p casted --bin castedc -- \
  run "$staged_src" --scheme casted --issue 2 --delay 2 \
  --artifact-cache "$log_dir/artifacts" \
  --metrics-counters "$log_dir/staged_nl.json" > "$log_dir/staged_nl.out"
cmp "$log_dir/staged_cold.out" "$log_dir/staged_nl.out"
nl_hits="$(stage_hits "$log_dir/staged_nl.json")"
if [ "$nl_hits" != 3 ]; then
  echo "newline-edited rerun expected exactly 3 stage hits (got '${nl_hits:-none}')" >&2
  exit 1
fi
echo "staged compile byte-identical cold and warm ($warm_stage_hits warm stage hits, $copy_hits from another directory, $cfg_hits after a config-only change, $nl_hits after a newline edit)"
# Every store save either lands by rename or removes its temp file, so
# no store directory may hold a leftover `.tmp-*` entry.
no_temp_files() {
  for dir in "$@"; do
    [ -d "$dir" ] || { echo "store directory $dir is missing" >&2; exit 1; }
    leftover="$(find "$dir" -maxdepth 1 -name '.tmp-*' -print -quit)"
    if [ -n "$leftover" ]; then
      echo "store left a temp file behind: $leftover" >&2
      exit 1
    fi
  done
}
no_temp_files "$log_dir/artifacts" "$log_dir/section-store"

echo "== castedc inject refuses a target that does not halt fault-free =="
# A target whose fault-free run traps is refused under the campaign's
# default cycle bound with the text casted-serve sends for the same
# refusal, and castedc exits 1 — not 101 with a panic backtrace. The
# refusal still writes the requested counter snapshot (a refused target
# moves no sim.* counter, so only the file is required).
trap_src="$log_dir/trap.mc"
cat > "$trap_src" <<'EOF'
global t: [int; 4]; fn main() -> int { var i: int = 100000000; out(t[i]); return 0; }
EOF
trap_status=0
cargo run --release --offline -q -p casted --bin castedc -- \
  inject "$trap_src" --trials 4 --metrics-counters "$log_dir/trap_counters.json" \
  > /dev/null 2> "$log_dir/trap.err" || trap_status=$?
if [ "$trap_status" != 1 ] \
  || ! grep -q 'campaign target must halt fault-free within [0-9]* cycles, got Exception' \
    "$log_dir/trap.err"; then
  echo "castedc inject on a trapping target: expected exit 1 with the refusal, got $trap_status:" >&2
  cat "$log_dir/trap.err" >&2
  exit 1
fi
if [ ! -f "$log_dir/trap_counters.json" ]; then
  echo "castedc inject refused the trapping target but wrote no --metrics-counters file" >&2
  exit 1
fi
echo "castedc inject refused the trapping target (exit 1, counters written)"

echo "== castedc run stops a program that never halts =="
# The fault-free run, and the costing of CASTED's candidate schedules
# before it, stop at the simulator's one fault-free bound
# (DEFAULT_MAX_CYCLES): castedc exits 1 and names the bound instead of
# simulating forever. The counter snapshot is still written, with the
# sim.* counters the costing flushed.
loop_src="$log_dir/loop.mc"
cat > "$loop_src" <<'EOF'
fn main() { var x: int = 1; while x > 0 { x = x + 2; } out(x); }
EOF
loop_status=0
cargo run --release --offline -q -p casted --bin castedc -- \
  run "$loop_src" --metrics-counters "$log_dir/loop_counters.json" \
  > /dev/null 2> "$log_dir/loop_run.err" || loop_status=$?
if [ "$loop_status" != 1 ] \
  || ! grep -q 'castedc: the program did not halt within 200000000 cycles' "$log_dir/loop_run.err"; then
  echo "castedc run on a non-halting program: expected exit 1 naming the bound, got $loop_status:" >&2
  cat "$log_dir/loop_run.err" >&2
  exit 1
fi
if ! grep -q '"sim\.runs"' "$log_dir/loop_counters.json" 2>/dev/null; then
  echo "castedc run on a non-halting program: no sim.runs in its --metrics-counters file" >&2
  exit 1
fi
echo "castedc run stopped the non-halting program at the bound (exit 1, counters written)"

echo "== one compiled cycle loop (nm on the release castedc) =="
# The simulator's cycle loop, casted_sim::machine::run_machine, is one
# non-generic function that every run calls: the binary holds exactly
# one copy of it, and none of its wrappers holds an inlined copy (a
# wrapper past 2 KB would be one; the loop itself is about 13 KB).
loop_copies=0
while read -r _ size _ name; do
  case "$name" in
    casted_sim::machine::run_machine) loop_copies=$((loop_copies + 1)) ;;
    casted_sim::machine::run_golden | casted_sim::machine::run_decoded \
      | casted_sim::machine::simulate_golden)
      if [ $((16#$size)) -gt 2048 ]; then
        echo "$name is $((16#$size)) bytes: it holds a copy of the cycle loop" >&2
        exit 1
      fi ;;
  esac
done < <(nm -C -S --defined-only target/release/castedc)
if [ "$loop_copies" != 1 ]; then
  echo "expected exactly one casted_sim::machine::run_machine in castedc, found $loop_copies" >&2
  exit 1
fi
echo "castedc holds one compiled cycle loop"

echo "== casted-serve loopback smoke (offline, ephemeral port) =="
# Start the service on an ephemeral loopback port with both on-disk
# stores (section cache + artifact cache), push one request of each
# kind through casted-client, assert the content-addressed cache
# reports a hit for a repeated identical request, assert a
# whitespace-edited inject (a reply-cache miss) is answered from the
# section store with a byte-identical reply, check that an RBED inject
# ends with the same tally plain and streamed, cancel a streaming
# campaign mid-run, refuse a non-halting campaign target under the
# server's cycle limit (plain and streamed), then shut down gracefully
# — the server must drain and exit 0. Everything is local
# TCP; no network access is involved. See docs/SERVING.md.
serve_bin=target/release/casted-serve
client_bin=target/release/casted-client
smoke_src="$log_dir/smoke.mc"
cat > "$smoke_src" <<'EOF'
fn main() { var s: int = 0; for i in 0..60 { s = s + i * i; } out(s); }
EOF
"$serve_bin" --metrics-counters --section-cache "$log_dir/serve-sections" \
  --artifact-cache "$log_dir/serve-artifacts" --max-cycles 1000000 > "$log_dir/serve.log" &
serve_pid=$!
# A failure below must not orphan the server.
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$log_dir"' EXIT
addr=""
for _ in $(seq 1 100); do
  # The log may not exist yet: the server's shell opens it after the
  # fork, so a missing file is one more turn of the wait, not an error.
  addr="$(sed -n 's/^casted-serve listening on //p' "$log_dir/serve.log" 2>/dev/null || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "casted-serve did not come up" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
"$client_bin" --addr "$addr" ping | grep -q pong
# Multi-line replies go to a file before grep: `client | grep -q`
# lets grep exit at its first match, and the client's next line then
# fails on the closed pipe (pipefail turns that into a CI failure).
"$client_bin" --addr "$addr" compile  --file "$smoke_src" --scheme casted --issue 2 --delay 2 \
  > "$log_dir/compile.out"
grep -q '^bundles: ' "$log_dir/compile.out"
"$client_bin" --addr "$addr" simulate --file "$smoke_src" --scheme casted --issue 2 --delay 2 \
  > "$log_dir/sim1.out"
grep -q '^cycles: ' "$log_dir/sim1.out"
"$client_bin" --addr "$addr" inject   --file "$smoke_src" --scheme casted --issue 2 --delay 2 \
  --trials 60 --seed 0xCA57ED --engine checkpointed > "$log_dir/inject.out"
grep -q '^trials: 60$' "$log_dir/inject.out"
# Same program, different bytes: misses the reply cache, recombines
# from the section store, and must print the identical reply.
sed 's/ /  /g' "$smoke_src" > "$log_dir/smoke_ws.mc"
"$client_bin" --addr "$addr" inject   --file "$log_dir/smoke_ws.mc" --scheme casted --issue 2 --delay 2 \
  --trials 60 --seed 0xCA57ED --engine checkpointed > "$log_dir/inject_ws.out"
cmp "$log_dir/inject.out" "$log_dir/inject_ws.out"
# The repeated identical request must be served from the cache and be
# byte-identical to the first reply.
"$client_bin" --addr "$addr" simulate --file "$smoke_src" --scheme casted --issue 2 --delay 2 \
  > "$log_dir/sim2.out"
cmp "$log_dir/sim1.out" "$log_dir/sim2.out"
"$client_bin" --addr "$addr" counters > "$log_dir/serve_counters.json"
hits="$(sed -n 's/.*"serve\.cache\.hit": \([0-9]*\).*/\1/p' "$log_dir/serve_counters.json")"
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
  echo "expected at least one serve.cache.hit, got '${hits:-none}'" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
section_hits="$(sed -n 's/.*"faults\.sections\.hit": \([0-9]*\).*/\1/p' "$log_dir/serve_counters.json")"
if [ -z "$section_hits" ] || [ "$section_hits" -lt 1 ]; then
  echo "expected at least one faults.sections.hit, got '${section_hits:-none}'" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# RBED through both inject paths: the plain request, which the
# section-store path hands to the standard engine, and the streamed
# one must end with the same tally.
"$client_bin" --addr "$addr" inject --file "$smoke_src" --scheme rbed --issue 2 --delay 2 \
  --trials 60 --seed 0xCA57ED > "$log_dir/inject_rbed.out"
"$client_bin" --addr "$addr" inject --file "$smoke_src" --scheme rbed --issue 2 --delay 2 \
  --trials 60 --seed 0xCA57ED --stream --every 20 > "$log_dir/inject_rbed_stream.out"
grep -q '^progress: ' "$log_dir/inject_rbed_stream.out"
grep -v '^progress: ' "$log_dir/inject_rbed_stream.out" > "$log_dir/inject_rbed_final.out"
cmp "$log_dir/inject_rbed.out" "$log_dir/inject_rbed_final.out"
# Streaming: progress frames arrive and a cancel lands cleanly
# mid-campaign (partial tally printed, connection healthy).
"$client_bin" --addr "$addr" inject --file "$smoke_src" \
  --scheme casted --issue 2 --delay 2 --trials 2000 --seed 0xCA57ED \
  --stream --every 25 --cancel-after 25 > "$log_dir/stream_cancel.out"
grep -q '^progress: ' "$log_dir/stream_cancel.out"
# The partial's size races the next chunk, but it is whole chunks of 25
# short of the 2000 asked for, and its six outcome counts add up to it.
if ! awk '/^cancelled$/ { c = 1; next }
  c && /^trials: / { n = $2 }
  c && /^(benign|detected|exception|data_corrupt|timeout|corrected): / { s += $2; k++ }
  END { exit !(c && n > 0 && n % 25 == 0 && n < 2000 && k == 6 && s == n) }' \
  "$log_dir/stream_cancel.out"; then
  echo "the cancelled stream's partial tally is not whole chunks below 2000 that add up:" >&2
  cat "$log_dir/stream_cancel.out" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# A target that never halts: the campaign's own bounded golden run
# refuses it on the section-store path and on the streamed path alike,
# and the server keeps answering.
loop_src="$log_dir/loop.mc"
cat > "$loop_src" <<'EOF'
fn main() { var x: int = 1; while x > 0 { x = x + 2; } out(x); }
EOF
refuse_loop() { # $1: label; the rest: extra client flags
  local mode="$1"
  shift
  if "$client_bin" --addr "$addr" inject --file "$loop_src" --scheme noed --issue 2 --delay 2 \
    --trials 20 --seed 1 "$@" > /dev/null 2> "$log_dir/loop_$mode.err"; then
    echo "a non-halting $mode inject was not refused" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  grep -q 'campaign target must halt fault-free within 1000000 cycles' "$log_dir/loop_$mode.err"
}
refuse_loop plain
refuse_loop stream --stream --every 5
"$client_bin" --addr "$addr" ping | grep -q pong
"$client_bin" --addr "$addr" shutdown | grep -q 'shutting down'
wait "$serve_pid"   # graceful drain must exit 0 (set -e enforces it)
no_temp_files "$log_dir/serve-artifacts" "$log_dir/serve-sections"
grep -q '"serve\.cache\.hit"' "$log_dir/serve.log"
echo "serve smoke green (cache hits: $hits, section hits: $section_hits, RBED plain == streamed, stream cancelled cleanly, non-halting target refused, graceful exit 0, no temp files left)"

echo "tier-1 green"
