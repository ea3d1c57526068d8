#!/usr/bin/env bash
# Ingestion smoke test: capture per-core traces, re-encode them as text
# and gzip, replay all three encodings through a two-scheme grid, and
# require every replay report to be byte-identical to the synthetic run
# that produced the capture (the DESIGN.md §9 contract, end to end
# through the CLI).
#
#   scripts/trace_smoke.sh [BUILD_DIR]        quick grid (CI)
#   scripts/trace_smoke.sh [BUILD_DIR] --big  also stream a >= 1 GiB
#                                             trace and verify bounded
#                                             memory (slow; not in CI)
set -euo pipefail

BUILD=${1:-build}
BIG=${2:-}
TOOL="$BUILD/examples/trace_tool"
CLI="$BUILD/examples/cop_sim_cli"
for bin in "$TOOL" "$CLI"; do
    if [ ! -x "$bin" ]; then
        echo "trace_smoke: $bin not built (pass the build dir?)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/cop_trace_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

BENCH=mcf
CORES=2
EPOCHS=400

echo "== capture + convert ($BENCH, $CORES cores, $EPOCHS epochs)"
for ((c = 0; c < CORES; ++c)); do
    "$TOOL" capture "$BENCH" "$EPOCHS" "$WORK/t.c$c.coptrc" "$c" >/dev/null
    "$TOOL" convert "$WORK/t.c$c.coptrc" "$WORK/t.c$c.txt" text >/dev/null
    "$TOOL" convert "$WORK/t.c$c.coptrc" "$WORK/t.c$c.coptrc.gz" gz \
        >/dev/null
done

echo "== replay grid (synthetic vs bin/text/gz)"
for scheme in cop4 coper; do
    "$CLI" --bench "$BENCH" --scheme "$scheme" --cores "$CORES" \
        --epochs "$EPOCHS" >"$WORK/synth.$scheme"
    for ext in coptrc txt coptrc.gz; do
        "$CLI" --bench "$BENCH" --scheme "$scheme" \
            --trace-in "$WORK/t.c0.$ext" --trace-in "$WORK/t.c1.$ext" \
            >"$WORK/replay.$scheme.$ext"
        cmp "$WORK/synth.$scheme" "$WORK/replay.$scheme.$ext"
        echo "   $scheme/$ext: byte-identical"
    done
done

if [ "$BIG" != "--big" ]; then
    echo "trace_smoke: OK (pass --big for the bounded-memory check)"
    exit 0
fi

echo "== big mode: >= 1 GiB trace, bounded-memory streaming replay"
# Probe the per-epoch size, then capture enough epochs to cross 1 GiB.
"$TOOL" capture "$BENCH" 10000 "$WORK/probe.coptrc" >/dev/null
PROBE_BYTES=$(wc -c <"$WORK/probe.coptrc")
BIG_EPOCHS=$(((1 << 30) / (PROBE_BYTES / 10000) + 10000))
rm -f "$WORK/probe.coptrc"
echo "   capturing $BIG_EPOCHS epochs (~$((PROBE_BYTES / 10000)) B/epoch)"
"$TOOL" capture "$BENCH" "$BIG_EPOCHS" "$WORK/big.coptrc.gz" >/dev/null

# The simulator's own memory legitimately grows with run length
# (per-write version accounting), so an absolute cap would measure the
# simulator, not the ingester. The bounded-memory contract is a DELTA:
# replaying the >= 1 GiB gzip stream (the unseekable, chunked-inflate
# path — nothing may materialise the trace) must cost at most a small
# constant more than the synthetic run of identical length.
if [ ! -r /proc/self/status ]; then
    echo "trace_smoke: no /proc; skipping the bounded-memory check" >&2
    exit 0
fi

# Run "$@", print its peak RSS (VmHWM, kB); fails if the command fails.
peak_rss_kb() {
    "$@" >/dev/null &
    local pid=$! peak=0 v
    while kill -0 "$pid" 2>/dev/null; do
        v=$(awk '/VmHWM/ {print $2}' "/proc/$pid/status" 2>/dev/null ||
            true)
        [ -n "${v:-}" ] && peak=$v
        sleep 0.2
    done
    wait "$pid"
    echo "$peak"
}

SYNTH_KB=$(peak_rss_kb "$CLI" --bench "$BENCH" --scheme unprot \
    --cores 1 --epochs "$BIG_EPOCHS")
REPLAY_KB=$(peak_rss_kb "$CLI" --bench "$BENCH" --scheme unprot \
    --trace-in "$WORK/big.coptrc.gz")
SLACK_KB=$((192 * 1024))
echo "   peak RSS: synthetic ${SYNTH_KB} kB, gzip replay ${REPLAY_KB} kB" \
    "(allowed delta ${SLACK_KB} kB, trace >= 1 GiB uncompressed)"
if [ "$REPLAY_KB" -gt $((SYNTH_KB + SLACK_KB)) ]; then
    echo "trace_smoke: FAIL: ingestion added more than ${SLACK_KB} kB" \
        "over the synthetic run — the trace is being materialised" >&2
    exit 1
fi
echo "trace_smoke: OK (including --big)"
