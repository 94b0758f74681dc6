#!/usr/bin/env bash
# The full local gate: build, tests, the bench-par trend gate, and the
# lint wall.
#
# Every stage is a function, and `bash ci.sh <stage>` runs exactly one of
# them — that is what .github/workflows/ci.yml does, one named job per
# stage, so the workflow can never drift from what this script checks.
# With no argument every stage runs in order, each echoing its wall time.
#
# Library and binary code is held to a stricter standard than tests:
# `unwrap`/`expect` are denied there so that every pipeline failure is a
# value (`IpcpError`), never a panic — the crash-free guarantee that
# tests/robustness.rs exercises dynamically is enforced statically here.
set -euo pipefail
cd "$(dirname "$0")"

stage_fmt() {
    cargo fmt --all -- --check
}

stage_build() {
    # --locked: the committed Cargo.lock must already be up to date; a
    # drifted lockfile fails the gate instead of being silently rewritten.
    cargo build --release --workspace --locked
}

stage_tests_seq() {
    IPCP_JOBS=1 cargo test -q --workspace
}

stage_tests_par() {
    IPCP_JOBS=4 cargo test -q --workspace
}

stage_robustness() {
    IPCP_QUARANTINE=off cargo test -q --test robustness
}

stage_deadline_smoke() {
    # Pick the largest .ft by size; the run must terminate promptly
    # (timeout is the backstop) and exit 0 (degraded-but-sound) or 3
    # (with --strict). Sizes are read one file at a time — `wc -c FILES`
    # appends a "total" line that a sort|tail pipeline can mistake for a
    # program.
    [ -x target/release/ipcc ] || cargo build --release -q -p ipcp-cli
    local largest="" largest_size=0 f size
    for f in crates/suite/programs/*.ft; do
        size=$(wc -c < "$f")
        if [ "$size" -gt "$largest_size" ]; then
            largest_size=$size
            largest=$f
        fi
    done
    echo "    program: $largest ($largest_size bytes)"
    timeout 30 ./target/release/ipcc analyze "$largest" --deadline-ms 1 >/dev/null
    local status=0
    timeout 30 ./target/release/ipcc analyze "$largest" --deadline-ms 0 --strict >/dev/null 2>&1 || status=$?
    if [ "$status" != 0 ] && [ "$status" != 3 ]; then
        echo "deadline smoke test: unexpected exit $status" >&2
        return 1
    fi
}

stage_serve_smoke() {
    # The daemon's fault-isolation proof as a CI gate (docs/SERVE.md,
    # "Service contract"): a scripted stdin session whose third request
    # panics by injection — the daemon must answer it as a structured
    # error and serve the next request bit-identically to before the
    # crash — then a concurrent socket-client burst against a tiny
    # admission bound (every reply is service or an explicit shed), and
    # a clean SIGTERM drain. A static audit first: no serve path may
    # exit the process.
    [ -x target/release/ipcc ] || cargo build --release -q -p ipcp-cli
    if sed 's://.*$::' crates/cli/src/serve.rs crates/core/src/serve/*.rs \
        | grep -n 'process::exit'; then
        echo "serve smoke: process::exit found in a serve path" >&2
        return 1
    fi
    local prog=crates/suite/programs/ocean.ft
    local out=target/serve-smoke.out
    timeout 60 ./target/release/ipcc serve "$prog" --drain-ms 30000 >"$out" <<'EOF'
{"id":1,"op":"health"}
{"id":2,"op":"constants"}
{"id":3,"op":"analyze","config":{"quarantine":false,"inject_panic":{"stage":"jump","proc":1}}}
{"id":4,"op":"constants"}
{"id":5,"op":"stats"}
{"id":6,"op":"batch","requests":[{"id":"b1","op":"health"},{"id":"b2","op":"constants"}]}
EOF
    grep -qF '"id":3,"ok":false,"error":{"kind":"panic"' "$out" || {
        echo "serve smoke: injected panic was not answered as a contained error" >&2
        cat "$out" >&2
        return 1
    }
    # The batch op: one frame, one reply frame, per-item outcomes.
    if ! grep -F '"id":6,"ok":true' "$out" | grep -qF '"results":['; then
        echo "serve smoke: batch frame did not come back as one reply with results" >&2
        cat "$out" >&2
        return 1
    fi
    grep -qF '"id":"b2","ok":true' "$out" || {
        echo "serve smoke: batch item b2 was not answered in the results array" >&2
        cat "$out" >&2
        return 1
    }
    local before after
    before=$(grep -F '"id":2' "$out" | sed 's/"id":[0-9]*,//')
    after=$(grep -F '"id":4' "$out" | sed 's/"id":[0-9]*,//')
    if [ -z "$before" ] || [ "$before" != "$after" ]; then
        echo "serve smoke: constants differ across a contained crash" >&2
        cat "$out" >&2
        return 1
    fi
    grep -qF '"panics_contained":1' "$out" || {
        echo "serve smoke: stats do not record the contained panic" >&2
        return 1
    }
    # Whole-program and rejected edits, in a session of their own (under
    # the default admission bound): a `load`, an arity change of a
    # procedure nobody calls (resolved in full, not spliced), a fragment
    # that does not parse, and a rename — each answered by its outcome
    # or error kind, the rejected ones leaving the loaded program serving.
    timeout 60 ./target/release/ipcc serve "$prog" --drain-ms 30000 >"$out" <<'EOF'
{"id":7,"op":"load","source":"proc main() { call f(1); } proc f(a) { print a; } proc dead(x) { print x; }"}
{"id":8,"op":"update","proc":"dead","body":"proc dead(x, y) { print x + y; }"}
{"id":9,"op":"update","proc":"f","body":"proc f(a) { print ; }"}
{"id":10,"op":"update","proc":"f","body":"proc g(a) { print a; }"}
{"id":11,"op":"constants","proc":"f"}
EOF
    local want
    for want in '"id":7,"ok":true' '"id":8,"ok":true' \
        '"id":9,"ok":false,"error":{"kind":"frontend"' \
        '"id":10,"ok":false,"error":{"kind":"bad_request"' \
        '"id":11,"ok":true'; do
        grep -qF "$want" "$out" || {
            echo "serve smoke: no reply matching $want" >&2
            cat "$out" >&2
            return 1
        }
    done
    # A request deadline bounds each analysis but never picks its path: a
    # literal bump and a re-analysis under a far deadline walk their cone,
    # and an update under an expired one answers degraded.
    local bump='{"id":12,"op":"update","proc":"init","body":"proc init() { nx = 128; ny = 64; dt = 90; visc = 8; idebug = 0; }"}'
    printf '%s\n{"id":13,"op":"analyze"}\n' "$bump" \
        | timeout 60 ./target/release/ipcc serve "$prog" --request-deadline-ms 60000 \
            --drain-ms 30000 >"$out"
    for want in 12 13; do
        grep -F "\"id\":$want,\"ok\":true" "$out" | grep -qF '"path":"live"' || {
            echo "serve smoke: request $want under a far deadline did not run live" >&2
            cat "$out" >&2
            return 1
        }
    done
    printf '%s\n' "$bump" \
        | timeout 60 ./target/release/ipcc serve "$prog" --request-deadline-ms 0 \
            --drain-ms 30000 >"$out"
    grep -F '"id":12,"ok":true' "$out" | grep -qF '"degraded":true' || {
        echo "serve smoke: an update under an expired deadline was not degraded" >&2
        cat "$out" >&2
        return 1
    }
    local code=0
    ./target/release/ipcc serve --deadline-ms 5 "$prog" </dev/null >/dev/null 2>&1 || code=$?
    if [ "$code" != 2 ]; then
        echo "serve smoke: serve --deadline-ms exited $code, not 2" >&2
        return 1
    fi

    local sock=target/serve-smoke.sock
    rm -f "$sock"
    timeout 60 ./target/release/ipcc serve "$prog" --socket "$sock" \
        --max-inflight 2 </dev/null >/dev/null 2>&1 &
    local daemon=$!
    local i
    for i in $(seq 100); do
        [ -S "$sock" ] && break
        sleep 0.1
    done
    [ -S "$sock" ] || {
        echo "serve smoke: socket never appeared" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    }
    : >"$out.burst"
    local cpids=() c
    for c in 1 2 3 4 5 6 7 8; do
        printf '{"id":"b%s","op":"constants"}\n' "$c" \
            | timeout 20 ./target/release/ipcc serve --connect "$sock" >>"$out.burst" &
        cpids+=($!)
    done
    local p
    for p in "${cpids[@]}"; do wait "$p"; done
    local replies
    replies=$(wc -l <"$out.burst")
    if [ "$replies" != 8 ]; then
        echo "serve smoke: burst got $replies/8 replies" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if grep -vF '"ok":true' "$out.burst" | grep -vF '"kind":"overloaded"' | grep -q .; then
        echo "serve smoke: burst reply is neither service nor an explicit shed" >&2
        cat "$out.burst" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    kill -TERM "$daemon"
    local status=0
    wait "$daemon" || status=$?
    if [ "$status" != 0 ]; then
        echo "serve smoke: daemon exited $status on SIGTERM" >&2
        return 1
    fi
    if [ -e "$sock" ]; then
        echo "serve smoke: socket file survived shutdown" >&2
        return 1
    fi

    # --- Concurrency drill (docs/SERVE.md, "Concurrency"): 8 clients
    # hammer interleaved reads (single and batched) while one writer
    # alternates `update`s, against --serve-workers 4. Every reply must
    # be correct warm service or an explicit shed — never a torn answer
    # or a dead connection — and a SIGTERM drain must still exit 0 with
    # the store snapshotted. The writer is the lockstep client that
    # resends on a shed: its updates race 160 pipelined reader frames
    # for --max-inflight 64, a shed update never ran, and an update is
    # idempotent, so resending it is safe.
    local drillprog=target/serve-drill.ft
    cat >"$drillprog" <<'EOF'
global g0;
proc main() { g0 = 1; call f(2); print g0; }
proc f(a) { g0 = a + 1; call g(a); }
proc g(b) { print b; }
EOF
    local store=target/serve-drill.store
    rm -f "$sock" "$store"
    timeout 120 ./target/release/ipcc serve "$drillprog" --socket "$sock" \
        --serve-workers 4 --max-inflight 64 \
        --store "$store" --snapshot-every-n 5 </dev/null >/dev/null 2>&1 &
    daemon=$!
    for i in $(seq 100); do
        [ -S "$sock" ] && break
        sleep 0.1
    done
    [ -S "$sock" ] || {
        echo "serve smoke: drill daemon socket never appeared" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    }
    : >"$out.drill"
    : >"$out.drill.writer"
    cpids=()
    for c in 1 2 3 4 5 6 7 8; do
        {
            for i in $(seq 10); do
                printf '{"id":"r%s-%s","op":"constants","proc":"g"}\n' "$c" "$i"
                printf '{"id":"h%s-%s","op":"batch","requests":[{"id":"x1","op":"health"},{"id":"x2","op":"stats"}]}\n' "$c" "$i"
            done
        } | timeout 60 ./target/release/ipcc serve --connect "$sock" >>"$out.drill" &
        cpids+=($!)
    done
    {
        for i in $(seq 10); do
            printf '{"id":"w%s","op":"update","proc":"f","body":"proc f(a) { g0 = a + %s; call g(a); }"}\n' "$i" "$((1 + i % 2))"
        done
    } | timeout 60 ./target/release/ipcc serve --connect "$sock" --retries 10 --retry-ms 20 \
        >>"$out.drill.writer" &
    cpids+=($!)
    for p in "${cpids[@]}"; do wait "$p"; done
    replies=$(wc -l <"$out.drill")
    if [ "$replies" != 160 ]; then
        echo "serve smoke: drill readers got $replies/160 replies" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if [ "$(wc -l <"$out.drill.writer")" != 10 ]; then
        echo "serve smoke: drill writer got $(wc -l <"$out.drill.writer")/10 replies" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if grep -vF '"ok":true' "$out.drill" | grep -vF '"kind":"overloaded"' \
        | grep -vF '"kind":"shutting_down"' | grep -q .; then
        echo "serve smoke: drill reply is neither warm service nor an explicit shed" >&2
        grep -vF '"ok":true' "$out.drill" | head >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if grep -vF '"ok":true' "$out.drill.writer" | grep -q .; then
        echo "serve smoke: a drill update was rejected" >&2
        cat "$out.drill.writer" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    # Reads raced 10 updates, but `g`'s incoming constant is 2 under
    # both committed variants: every served (non-shed) constants reply
    # must carry exactly that — a half-committed cache could not.
    if grep -F '"id":"r' "$out.drill" | grep -F '"ok":true' \
        | grep -vF '"proc":"g","constants":[{"slot":"b","value":2}]' | grep -q .; then
        echo "serve smoke: a drill read returned a torn or wrong constants payload" >&2
        grep -F '"id":"r' "$out.drill" | grep -vF '"value":2' | head >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    kill -TERM "$daemon"
    status=0
    wait "$daemon" || status=$?
    if [ "$status" != 0 ]; then
        echo "serve smoke: drill daemon exited $status on SIGTERM" >&2
        return 1
    fi
    [ -s "$store" ] || {
        echo "serve smoke: drill drain did not leave a snapshotted store" >&2
        return 1
    }
    rm -f "$store" "$store.tmp" "$drillprog"

    # --- Crash-restart drill (docs/ROBUSTNESS.md, "Durability contract").
    # A daemon with a store is killed -9 mid-session; the restart must
    # reclaim the stale socket, restore the snapshot (persisted hits in
    # stats), and answer bit-identically to the pre-crash daemon. Then a
    # truncated and a scribbled-on store must each cold-start exit 0
    # with a logged reason — never a crash, never a wrong answer.
    local store=target/serve-smoke.store
    rm -f "$store" "$sock"
    timeout 60 ./target/release/ipcc serve "$prog" --socket "$sock" \
        --store "$store" --snapshot-every-n 1 </dev/null >/dev/null 2>&1 &
    daemon=$!
    for i in $(seq 100); do
        [ -S "$sock" ] && break
        sleep 0.1
    done
    [ -S "$sock" ] || {
        echo "serve smoke: store daemon socket never appeared" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    }
    printf '{"id":"c1","op":"constants"}\n' \
        | timeout 20 ./target/release/ipcc serve --connect "$sock" >"$out.cold"
    for i in $(seq 100); do
        [ -s "$store" ] && break
        sleep 0.1
    done
    [ -s "$store" ] || {
        echo "serve smoke: snapshot never reached the store file" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    }
    # $daemon is the `timeout` wrapper; SIGKILL is not forwarded, so
    # aim at the daemon process itself — the whole point is a death the
    # daemon gets no chance to handle.
    local dpid
    dpid=$(pgrep -P "$daemon" || echo "$daemon")
    kill -9 "$dpid"
    wait "$daemon" 2>/dev/null || true
    [ -S "$sock" ] || {
        echo "serve smoke: kill -9 did not leave a stale socket to reclaim" >&2
        return 1
    }
    timeout 60 ./target/release/ipcc serve "$prog" --socket "$sock" \
        --store "$store" </dev/null >/dev/null 2>"$out.warm.err" &
    daemon=$!
    for i in $(seq 100); do
        timeout 20 ./target/release/ipcc serve --connect "$sock" \
            </dev/null >/dev/null 2>&1 && break
        sleep 0.1
    done
    printf '{"id":"c1","op":"constants"}\n{"id":"s1","op":"stats"}\n' \
        | timeout 20 ./target/release/ipcc serve --connect "$sock" >"$out.warm" || {
        echo "serve smoke: restarted daemon did not reclaim the stale socket" >&2
        cat "$out.warm.err" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    }
    # Compare the analysis payload only — the reply also carries cache
    # counters, and hits-vs-misses is exactly what a warm restart changes.
    local payload='s/.*"procs"/"procs"/'
    if [ "$(grep -F '"id":"c1"' "$out.cold" | sed "$payload")" \
        != "$(grep -F '"id":"c1"' "$out.warm" | sed "$payload")" ]; then
        echo "serve smoke: constants differ across a kill -9 restart" >&2
        diff "$out.cold" "$out.warm" >&2 || true
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if grep -F '"id":"s1"' "$out.warm" | grep -qF '"cache_persisted_hits":0'; then
        echo "serve smoke: restart answered cold — no persisted hits" >&2
        cat "$out.warm" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    kill -TERM "$daemon"
    status=0
    wait "$daemon" || status=$?
    if [ "$status" != 0 ]; then
        echo "serve smoke: restarted daemon exited $status on SIGTERM" >&2
        return 1
    fi

    cp "$store" "$store.pristine"
    local shape
    for shape in truncated scribbled; do
        cp "$store.pristine" "$store"
        case "$shape" in
        truncated)
            head -c 40 "$store.pristine" >"$store"
            ;;
        scribbled)
            printf '\xde\xad\xbe\xef' | dd of="$store" bs=1 \
                seek=$(($(wc -c <"$store.pristine") / 2)) conv=notrunc 2>/dev/null
            ;;
        esac
        status=0
        timeout 60 ./target/release/ipcc serve "$prog" --store "$store" \
            >"$out.$shape" 2>"$out.$shape.err" <<'EOF' || status=$?
{"id":"c1","op":"constants"}
EOF
        if [ "$status" != 0 ]; then
            echo "serve smoke: $shape store crashed the daemon (exit $status)" >&2
            cat "$out.$shape.err" >&2
            return 1
        fi
        grep -q 'starting cold' "$out.$shape.err" || {
            echo "serve smoke: $shape store discarded without a logged reason" >&2
            cat "$out.$shape.err" >&2
            return 1
        }
        if [ "$(grep -F '"id":"c1"' "$out.cold" | sed "$payload")" \
            != "$(grep -F '"id":"c1"' "$out.$shape" | sed "$payload")" ]; then
            echo "serve smoke: $shape store produced a wrong answer" >&2
            return 1
        fi
    done
    rm -f "$store" "$store.pristine" "$store.tmp"
}

stage_fuzz() {
    # The shrinking property harness as a CI gate: `ipcc fuzz` drives
    # seeded generated programs through every registered property
    # (panic-free, soundness, jobs-identity, wavefront-worklist,
    # exit-consistency, serve-identity, serve-persist,
    # stream-identity), minimizing any counterexample into the corpus
    # dir and exiting 1. serve-identity's edits mix every suite mutator:
    # operator swaps, statement splices, call-arity perturbation,
    # literal bumps, global writes, globals bound by reference, and
    # perturbed actuals (perturb_actual, which moves VAL below a call). The PR lane runs the default 45 s budget; the
    # nightly lane (`fuzz-nightly` in ci.yml) raises the budget to 10
    # minutes and seeds from the workflow run id — the seed is echoed
    # below so a red night is replayable from its log.
    cargo build --release -q -p ipcp-cli
    local seed=${IPCP_FUZZ_SEED:-1}
    local budget_ms=${IPCP_FUZZ_BUDGET_MS:-45000}
    local cases=${IPCP_FUZZ_CASES:-100000}
    local corpus=${IPCP_FUZZ_CORPUS:-target/fuzz-corpus}
    # One modest whole-program generation rides along as a fixed corpus
    # source: real call-graph structure (SCCs, fan-out, depth) that the
    # small random cases never reach. IPCP_FUZZ_GEN overrides the spec.
    local gen=${IPCP_FUZZ_GEN:-scale:procs=200,shape=mixed,recursion=10,seed=11}
    echo "    seed: $seed  budget: ${budget_ms}ms  corpus: $corpus  gen: $gen"
    ./target/release/ipcc fuzz --jump-fn poly \
        --seed "$seed" --cases "$cases" \
        --time-budget-ms "$budget_ms" --corpus "$corpus" \
        --gen "$gen"
}

stage_bench_par() {
    # The parallelism trend gate. Runs both bench binaries at low rep
    # count with a jobs={1,2,4} sweep (jobs=1 is the baseline inside the
    # binaries). What GATES is identity: jobs=1 vs jobs=N and wavefront
    # vs the §4.1 worklist reference must agree bit-for-bit — the
    # binaries exit nonzero on divergence, and the grep is a
    # belt-and-braces check that the JSON actually carries identity
    # records. Speedups are WARN-LINES only: they are machine-dependent
    # and physically capped at 1.0x on single-core runners, so the JSON
    # records `cores` and the trend is read by humans, not the gate.
    [ -x target/release/bench_par ] && [ -x target/release/bench_solver ] \
        || cargo build --release -q -p ipcp-bench
    IPCP_BENCH_REPS=2 IPCP_BENCH_JOBS=2,4 ./target/release/bench_par
    IPCP_BENCH_REPS=2 ./target/release/bench_solver
    local j
    for j in BENCH_par.json BENCH_solver.json; do
        if grep -q '"identical": false' "$j"; then
            echo "bench-par gate: $j reports a schedule divergence" >&2
            return 1
        fi
        if ! grep -q '"identical": true' "$j"; then
            echo "bench-par gate: $j carries no identity records" >&2
            return 1
        fi
    done
    local cores
    cores=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_par.json | head -1)
    sed -n 's/.*"program": "\([a-z]*\)",.*"jobs": \([0-9]*\),.*"speedup": \([0-9.]*\),.*/\1 jobs=\2 speedup \3x/p' \
        BENCH_par.json | while read -r line; do
        echo "    warn: $line (cores=$cores)"
    done
}

stage_bench_identity() {
    # Back-compat alias: the identity checks now live in the bench-par
    # trend gate.
    stage_bench_par
}

stage_scale_smoke() {
    # The whole-program scale gate, PR-sized: the 1k and 10k tiers
    # (IPCP_SCALE_TIERS overrides; the nightly lane passes 100k)
    # through the streaming front end at jobs={1,4}, each (tier, jobs)
    # cell in its own child process so peak RSS is per-cell truth. The
    # wall/RSS ceilings are deliberately generous — shared runners have
    # noisy clocks — but a complexity regression blows through them
    # with room to spare: the class of bug this tier exists to catch
    # once turned the 10k analysis from 7 s into 88 s. docs/SCALE.md
    # explains how to read the output.
    [ -x target/release/bench_scale ] || cargo build --release -q -p ipcp-bench
    IPCP_SCALE_TIERS=${IPCP_SCALE_TIERS:-1k,10k} \
    IPCP_SCALE_MAX_WALL_MS=${IPCP_SCALE_MAX_WALL_MS:-240000} \
    IPCP_SCALE_MAX_RSS_MB=${IPCP_SCALE_MAX_RSS_MB:-2048} \
        ./target/release/bench_scale
    if grep -q '"identical": false' BENCH_scale.json; then
        echo "scale gate: BENCH_scale.json reports a schedule divergence" >&2
        return 1
    fi
    if ! grep -q '"identical": true' BENCH_scale.json; then
        echo "scale gate: BENCH_scale.json carries no identity records" >&2
        return 1
    fi
}

stage_serve_bench() {
    # The parallel-serve gate: bench_serve boots the real daemon over
    # the generated 1k-tier program at --serve-workers {1,4} and
    # enforces the contracts that must hold on any machine — replies
    # byte-identical between batched and unbatched passes and across
    # worker counts ("identical" per row), and batched reads >= 2x
    # cheaper than one-round-trip-per-request reads
    # (IPCP_SERVE_MIN_BATCH_SPEEDUP). Absolute latencies land in
    # BENCH_serve.json for the cross-run trend gate; worker-count
    # *scaling* is warn-lined only, because CI runners are 1-core.
    [ -x target/release/ipcc ] || cargo build --release -q -p ipcp-cli
    [ -x target/release/bench_serve ] || cargo build --release -q -p ipcp-bench
    IPCP_SERVE_TIERS=${IPCP_SERVE_TIERS:-1k} \
    IPCP_SERVE_WORKERS=${IPCP_SERVE_WORKERS:-1,4} \
        ./target/release/bench_serve
    if grep -q '"identical": false' BENCH_serve.json; then
        echo "serve gate: BENCH_serve.json reports a reply divergence" >&2
        return 1
    fi
    if ! grep -q '"identical": true' BENCH_serve.json; then
        echo "serve gate: BENCH_serve.json carries no identity records" >&2
        return 1
    fi
    local u1 u4
    u1=$(sed -n 's/.*"jobs": 1,.*"unbatched_read_us": \([0-9]*\).*/\1/p' BENCH_serve.json | head -1)
    u4=$(sed -n 's/.*"jobs": 4,.*"unbatched_read_us": \([0-9]*\).*/\1/p' BENCH_serve.json | head -1)
    if [ -n "$u1" ] && [ -n "$u4" ] && [ "$u4" -gt "$u1" ]; then
        echo "WARN: serve gate: workers=4 reads slower than workers=1" \
            "(${u4}us vs ${u1}us) — expected on 1-core runners"
    fi
}

stage_bench_trend() {
    # The cross-run trend gate over every BENCH_*.json report
    # (bench_par, bench_solver, bench_scale, bench_serve share one row
    # convention — see crates/bench/src/trend.rs). The baseline is the previous
    # run's reports under target/bench-baseline (ci.yml downloads the
    # last successful run's artifacts there); no baseline is a note,
    # never a failure. What FAILS is a fresh report carrying
    # "identical": false or not parsing at all; metric regressions
    # beyond IPCP_BENCH_TREND_PCT (default 15) are warn-lines, because
    # wall clocks on shared runners are noise — the warn-lines make a
    # persistent trend visible without flaking the gate.
    [ -x target/release/bench_trend ] || cargo build --release -q -p ipcp-bench
    local base=${IPCP_BENCH_BASELINE:-target/bench-baseline}
    if [ -d "$base" ]; then
        ./target/release/bench_trend --new . --old "$base"
    else
        echo "    no baseline at $base (first run?) — reporting only"
        ./target/release/bench_trend --new .
    fi

    # Self-drill: prove the gate gates. A doctored report with an
    # injected "identical": false must be fatal, and a synthetic
    # blow-up against a doctored baseline must surface as a warning.
    local drill=target/bench-trend-drill
    rm -rf "$drill"
    mkdir -p "$drill/new" "$drill/old"
    cp BENCH_par.json "$drill/old/"
    sed 's/"identical": true/"identical": false/' BENCH_par.json \
        >"$drill/new/BENCH_par.json"
    if ./target/release/bench_trend --new "$drill/new" --old "$drill/old" \
        >/dev/null 2>&1; then
        echo "bench-trend drill: injected identical:false was not fatal" >&2
        return 1
    fi
    # Append three zeros to every _us metric: a guaranteed >15% regression.
    sed -E 's/"([a-z_]+_us)": ([0-9]+)/"\1": \2000/g' BENCH_par.json \
        >"$drill/new/BENCH_par.json"
    ./target/release/bench_trend --new "$drill/new" --old "$drill/old" \
        >"$drill/out"
    grep -q '^WARN:' "$drill/out" || {
        echo "bench-trend drill: synthetic regression raised no warning" >&2
        cat "$drill/out" >&2
        return 1
    }
    echo "    drill: injected divergence fails, synthetic regression warns"
}

stage_perfbench() {
    # perfbench (the repository benchmark) is a package of its own with an
    # empty [workspace], so no other stage compiles it. It calls the
    # analyzer's layer functions directly (SSA construction, symbolic
    # evaluation, MOD/REF, lowering); building and testing it here makes
    # an API change fail this gate instead of the next benchmark run.
    CARGO_TARGET_DIR=target/perfbench cargo test --release --manifest-path perfbench/Cargo.toml
}

stage_lockfree_lint() {
    # The determinism contract (docs/ROBUSTNESS.md, "Concurrency
    # contract") is built on sharded state + an ordered fold, not on
    # locking. A Mutex creeping into the pool, a per-procedure phase, the
    # serve cache's memo lookups (they run inside pool rounds), the solver
    # wavefront, or a transformation driver would reintroduce schedule-
    # dependent behaviour silently — fail loudly instead. Line comments
    # are stripped first so prose *about* locks (like this) never trips
    # the lint.
    local hot_files=(
        crates/core/src/par.rs
        crates/core/src/pipeline.rs
        crates/core/src/jump.rs
        crates/core/src/retjump.rs
        crates/analysis/src/modref.rs
        crates/core/src/solver.rs
        crates/core/src/cloning.rs
        crates/core/src/inline.rs
        crates/core/src/complete.rs
        crates/core/src/serve/workers.rs
        crates/core/src/serve/cache.rs
    )
    local f bad=0
    for f in "${hot_files[@]}"; do
        if sed 's://.*$::' "$f" | grep -nE 'Mutex|RwLock' | sed "s|^|$f:|"; then
            bad=1
        fi
    done
    if [ "$bad" != 0 ]; then
        echo "lock-free lint: Mutex/RwLock found in a hot file" >&2
        return 1
    fi
}

stage_clippy_strict() {
    cargo clippy --workspace --lib --bins -q -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used
}

stage_clippy_all() {
    cargo clippy --workspace --all-targets -q -- -D warnings
}

# Stage registry: "name|description". Order is the full-run order.
STAGES=(
    "fmt|rustfmt check (cargo fmt --all -- --check)"
    "build|build (release, --locked)"
    "tests-seq|tests (sequential: IPCP_JOBS=1)"
    "tests-par|tests (parallel: IPCP_JOBS=4)"
    "robustness|robustness suite again, with quarantine disabled"
    "fuzz|property fuzz lane (ipcc fuzz: shrinking harness, time-boxed)"
    "deadline-smoke|deadline smoke test (largest suite program, 1 ms budget)"
    "serve-smoke|serve smoke test (panic drill, client burst, concurrency drill, SIGTERM drain, crash-restart)"
    "bench-par|bench-par trend gate (identity at jobs={1,2,4}; speedups warn-lined)"
    "scale-smoke|whole-program scale gate (1k/10k tiers, wall + RSS ceilings)"
    "serve-bench|parallel-serve gate (batch >= 2x, identity across workers; scaling warn-lined)"
    "bench-trend|cross-run bench trend gate (BENCH_*.json vs previous run + self-drill)"
    "perfbench|repository benchmark harness builds and passes its tests"
    "lockfree-lint|lock-free lint (hot phases, solver, and drivers stay Mutex/RwLock-free)"
    "clippy-strict|clippy (lib/bins: no unwrap, no expect, no warnings)"
    "clippy-all|clippy (all targets: no warnings)"
)

run_stage() {
    local name=$1 desc=$2
    echo "==> $desc"
    local t0=$SECONDS
    "stage_${name//-/_}"
    local dt=$((SECONDS - t0))
    echo "    [$name: ${dt}s]"
    # On GitHub each job's summary gets a per-stage wall-time table row
    # (one row per job in CI, all rows in a local-style full run).
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        if [ ! -s "$GITHUB_STEP_SUMMARY" ]; then
            printf '| stage | wall |\n| --- | --- |\n' >>"$GITHUB_STEP_SUMMARY"
        fi
        printf '| %s | %ss |\n' "$name" "$dt" >>"$GITHUB_STEP_SUMMARY"
    fi
}

main() {
    local want=${1:-all}
    if [ "$want" = "list" ]; then
        local entry
        for entry in "${STAGES[@]}"; do
            printf '%-16s %s\n' "${entry%%|*}" "${entry#*|}"
        done
        return 0
    fi
    if [ "$want" = "all" ]; then
        local entry
        for entry in "${STAGES[@]}"; do
            run_stage "${entry%%|*}" "${entry#*|}"
        done
        echo "==> ok"
        return 0
    fi
    local entry
    for entry in "${STAGES[@]}"; do
        if [ "${entry%%|*}" = "$want" ]; then
            run_stage "$want" "${entry#*|}"
            return 0
        fi
    done
    echo "ci.sh: unknown stage '$want'" >&2
    echo "stages: all list ${STAGES[*]%%|*}" >&2
    echo "(run 'bash ci.sh list' for one line of detail per stage)" >&2
    return 2
}

main "$@"
