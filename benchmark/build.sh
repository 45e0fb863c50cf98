#!/usr/bin/env bash
# Builds the benchmark harness optimised and prints the binary's path as the
# last line of stdout. Everything it writes lands under the target directory
# ($CARGO_TARGET_DIR, default .bench_build at the repository root).
#
# Two routes, tried in order:
#   1. cargo build --release --offline on benchmark/Cargo.toml. Works once the
#      workspace has no registry dependencies (ROADMAP "dependency diet") or
#      wherever a registry/vendor directory is reachable.
#   2. plain rustc -C opt-level=3 over the seven library crates in dependency
#      order, against the stand-in crates in tools/offline-check/stubs/ for
#      whichever of rand / rand_pcg / bytes / rayon still exist there. Only
#      rlibs and the harness are built: no tests, no other binaries.
# The route taken is recorded next to the binary (<binary>.info) and ends up
# in every result file; `compare` refuses to mix routes.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
cd "$ROOT"

[ -d crates ] || { echo "build.sh: no crates/ next to benchmark/: nothing to measure" >&2; exit 2; }

CARGO_BIN="$TARGET/release/dim-benchmark"
STUB_OUT="$TARGET/rustc-stub"
STUB_BIN="$STUB_OUT/dim-benchmark"
LOG="$TARGET/build.log"
mkdir -p "$TARGET"

# Inputs whose change invalidates the libraries, and the harness on top.
lib_sources() {
    find crates benchmark/build.sh \
        $([ -d tools/offline-check/stubs ] && echo tools/offline-check/stubs) \
        -type f \( -name '*.rs' -o -name 'Cargo.toml' -o -name 'build.sh' \) "$@"
}
sources() {
    lib_sources "$@"
    find benchmark/src benchmark/Cargo.toml -type f "$@"
}

fresh() { # fresh <binary>: exists, has its info file, and no input is newer
    [ -x "$1" ] && [ -f "$1.info" ] && [ -z "$(sources -newer "$1" -print -quit)" ]
}

for bin in "$CARGO_BIN" "$STUB_BIN"; do
    if fresh "$bin"; then
        echo "$bin"
        exit 0
    fi
done

write_info() { # write_info <binary> <route> <seconds>
    {
        echo "build=$2"
        echo "opt_level=3"
        echo "rustc=$(rustc -V)"
        echo "build_s=$3"
    } > "$1.info"
}

now() { date +%s.%N; }
START="$(now)"
elapsed() { awk -v a="$START" -v b="$(now)" 'BEGIN { printf "%.3f", b - a }'; }

echo "build.sh: trying cargo build --release --offline" >&2
if CARGO_TARGET_DIR="$TARGET" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml > "$LOG" 2>&1; then
    write_info "$CARGO_BIN" cargo "$(elapsed)"
    echo "$CARGO_BIN"
    exit 0
fi
echo "build.sh: cargo cannot resolve offline (see $LOG); building with rustc" >&2

mkdir -p "$STUB_OUT"
FLAGS=(--edition 2021 -C opt-level=3 --cap-lints allow -L "dependency=$STUB_OUT"
       --cfg 'feature="proc-backend"')
EXTERNS=()

# The libraries are rebuilt together or not at all: only when one of their
# sources is newer than the last of them.
LIBS_FRESH=0
if [ -f "$STUB_OUT/libdim_core.rlib" ] \
    && [ -z "$(lib_sources -newer "$STUB_OUT/libdim_core.rlib" -print -quit)" ]; then
    LIBS_FRESH=1
fi

rlib() { # rlib <crate_name> <src>: compile against everything built so far
    local name="$1" src="$2"
    if [ "$LIBS_FRESH" = 0 ]; then
        echo "build.sh: rustc $name" >&2
        rustc "${FLAGS[@]}" --crate-type rlib --crate-name "$name" "$src" \
            -o "$STUB_OUT/lib$name.rlib" "${EXTERNS[@]}" >> "$LOG" 2>&1 \
            || { tail -n 40 "$LOG" >&2; exit 1; }
    fi
    EXTERNS+=(--extern "$name=$STUB_OUT/lib$name.rlib")
}

: > "$LOG"
for stub in rand rand_pcg bytes rayon; do
    if [ -f "tools/offline-check/stubs/$stub.rs" ]; then
        rlib "$stub" "tools/offline-check/stubs/$stub.rs"
    fi
done
rlib dim_graph crates/graph/src/lib.rs
rlib dim_diffusion crates/diffusion/src/lib.rs
rlib dim_cluster crates/cluster/src/lib.rs
rlib dim_coverage crates/coverage/src/lib.rs
rlib dim_store crates/store/src/lib.rs
rlib dim_serve crates/serve/src/lib.rs
rlib dim_core crates/core/src/lib.rs

echo "build.sh: rustc dim-benchmark" >&2
rustc "${FLAGS[@]}" --crate-name dim_benchmark benchmark/src/main.rs \
    -o "$STUB_BIN" "${EXTERNS[@]}" >> "$LOG" 2>&1 \
    || { tail -n 40 "$LOG" >&2; exit 1; }
write_info "$STUB_BIN" rustc-stub "$(elapsed)"
echo "$STUB_BIN"
