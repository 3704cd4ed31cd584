#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean clippy,
# warning-free rustdoc, and a smoke run of the quickstart example.
# Run from the repository root. Works fully offline (no registry access).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Word-parallel Kleene kernels: the exhaustive truth-table identities and
# stride-padding leak checks must also pass under release codegen (the
# bit-twiddling kernels are exactly what optimization rewrites hardest).
# The block (4x u64 unrolled) kernels must agree with the per-word kernels
# lane for lane, and row evaluation and the row-wise coerce sweep must
# agree with the naive per-node reference semantics.
cargo test -q -p hetsep-tvl --release --test properties -- \
    word_kernels_match_scalar_truth_tables_in_every_lane \
    stride_padding_bits_never_leak \
    block_kernels_match_word_kernels_in_every_lane \
    block_scan_kernels_respect_stride_padding \
    eval_row_matches_reference_evaluator
cargo test -q -p hetsep-tvl --release --test coerce_rows
cargo test -q -p hetsep-tvl --release --test bulk_grow

# Scheduler determinism matrix: the scenario-suite byte-identity contracts
# must hold whatever the outer (subproblem) and inner (intra-batch
# transfer fan-out) worker counts are. The expensive generated workloads
# stay out of the matrix; everything else runs under both env settings.
for t in 1 4; do
    HETSEP_THREADS=$t HETSEP_INTRA_THREADS=$t \
        cargo test -q -p hetsep-core --release --test determinism -- \
        --skip generated_workloads
done
cargo clippy --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run -q -p hetsep --example quickstart --release > /dev/null

# Static pre-verification gate: the shipped example programs must lint
# clean (no E-codes, no warnings).
for prog in examples/programs/*.hsp; do
    cargo run -q -p hetsep --bin hetsep --release -- lint "$prog" --quiet --deny warnings
done
# The bundled benchmarks are linted against a golden instead: the suite
# deliberately contains buggy programs (KernelBench1's iterator misuse is
# a true positive for the flow-sensitive W105), so the gate pins the exact
# diagnostic stream rather than requiring silence. New or vanished
# warnings both fail the diff.
cargo run -q -p hetsep --bin hetsep --release -- \
    lint --suite --format json --quiet | diff -u scripts/lint_quick.golden -

# Transfer-cache / reporting golden: a quick Table 3 subset must keep its
# semantic columns byte-identical to the committed golden (wall-clock
# columns deliberately excluded). Guards the exact transfer cache and the
# reported/complete accounting against silent drift.
table3_quick_json="$(mktemp)"
table3_quick() {
    sed 's/"subproblems".*//' "$table3_quick_json" | sed -n \
        's/.*"benchmark": "\([^"]*\)", "mode": "\([^"]*\)", "space": \([0-9]*\), "visits": \([0-9]*\),.*"reported": \([^,]*\), "complete": \([^,]*\),.*/\1 \2 space=\3 visits=\4 reported=\5 complete=\6/p' \
        | diff -u scripts/table3_quick.golden -
}
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --json "$table3_quick_json" ISPath KernelBench1 db SharedLibLoop > /dev/null
table3_quick
# Same subset with the intra-batch transfer fan-out forced on: partition
# workers may only change wall-clock, never a semantic column.
HETSEP_INTRA_THREADS=4 cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --json "$table3_quick_json" ISPath KernelBench1 db SharedLibLoop > /dev/null
table3_quick
# And the summaries A/B: `--no-summaries` is the inlining-equivalent
# baseline, so the semantic columns must be byte-identical against the
# very same golden — only wall-clock and the summary counters may move.
cargo run -q -p hetsep-bench --bin table3 --release -- \
    --threads 1 --no-summaries --json "$table3_quick_json" \
    ISPath KernelBench1 db SharedLibLoop > /dev/null
table3_quick
rm -f "$table3_quick_json"

# Per-procedure summary gate: the shared-library bench asserts internally
# that verdicts/visits/space are identical across baseline (summaries
# off), cold, and warm runs, that the in-run memo and the cross-run store
# both hit, and that every region evaluation is exactly one hit or miss.
summaries_json="$(mktemp)"
cargo run -q -p hetsep-bench --bin summaries --release -- \
    --json "$summaries_json" --repeats 1 > /dev/null
rm -f "$summaries_json"

# Corpus scheduler smoke gate: a 50-job generated corpus run twice through
# a persisted cross-job cache. Both runs must reproduce the committed
# verdict summary (the summary line is schedule- and cache-independent by
# the scheduler's determinism contract), and the warm run must replay from
# the cache: identical summary with zero shared-store misses.
corpus_cache="$(mktemp -u)"
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 50 --seed 42 --workers 4 --cache "$corpus_cache" --quiet \
    | diff -u scripts/corpus_quick.golden -
cargo run -q -p hetsep --bin hetsep --release -- \
    corpus --jobs 50 --seed 42 --workers 4 --cache "$corpus_cache" --quiet \
    | diff -u scripts/corpus_quick.golden -
rm -f "$corpus_cache"

# Corrupt-cache gate: crafted cache files must be rejected in-band (exit 2
# with the decoder's message), never with a panic (101) or an allocation
# abort (134). The first is a container whose section length overflows the
# read cursor; the second a bare transfer store claiming a 2^32-word
# structure. `hetsep serve --cache` loads through the same decoder.
corrupt_cache="$(mktemp)"
corrupt_stderr="$(mktemp)"
for crafted in \
    'HSEPWS02\xf0\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00' \
    'HSEPTC01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff'; do
    printf "$crafted" > "$corrupt_cache"
    status=0
    cargo run -q -p hetsep --bin hetsep --release -- \
        corpus --jobs 1 --cache "$corrupt_cache" --quiet \
        > /dev/null 2> "$corrupt_stderr" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q "^error: truncated store$" "$corrupt_stderr"; then
        echo "corrupt cache not rejected in-band (exit $status):" >&2
        cat "$corrupt_stderr" >&2
        exit 1
    fi
done
rm -f "$corrupt_cache" "$corrupt_stderr"

# Verification-daemon smoke gate: a canned NDJSON session (load a buggy
# program, verify cold, re-verify warm, load the edited fix, re-verify,
# lint twice, an unknown-name error, status, shutdown) must reproduce the
# committed transcript byte-for-byte. Responses are deliberately
# wall-clock-free, so this pins verdicts AND the warm-replay cache
# accounting (the warm verify's shared_hits/cache_misses are part of the
# golden). `--preanalysis` makes the pruning columns live: the fixed
# program's only subproblem is pruned (zero visits), and the repeated lint
# must come from the workspace lint cache (`lint_cache_hits` in status).
cargo run -q -p hetsep --bin hetsep --release -- \
    serve --quiet --preanalysis < scripts/serve_session.ndjson \
    | diff -u scripts/serve_quick.golden -
