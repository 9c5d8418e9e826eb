#!/usr/bin/env bash
# Static-analysis gate.
#
# Primary analyzer: tools/aic_lint — a token-level, project-aware engine
# (src/analysis/) covering the L1–L6 conventions below plus the
# include-layering DAG, determinism (entropy/clock/env gateways), and
# exception-discipline rules, with a checked-in suppression baseline
# (.aic-lint-baseline.json) and inline `aic-lint: allow(rule)` comments.
# See DESIGN.md §14 for the rule catalog.
#
# aic_lint covers the six original conventions (L1 raw new/delete outside
# src/common/, L2 <iostream> in src/, L3 printf-family in src/, L4
# abort/exit in library code, L5 host-clock reads outside src/obs/, L6 raw
# memcpy in src/delta and src/ckpt) with the other rules. The gate fails
# closed: when aic_lint cannot be built (no cmake or compiler), the script
# exits 1 rather than run a weaker check.
#
# clang-tidy (when installed) runs after aic_lint, off the exported
# compile_commands.json.
#
# Usage: scripts/lint.sh
# Exit: 0 clean, 1 findings or no analyzer.
set -uo pipefail
cd "$(dirname "$0")/.."

if ! command -v cmake >/dev/null 2>&1 ||
  ! cmake -B build -S . >/dev/null 2>&1 ||
  ! cmake --build build --target aic_lint -j"$(nproc)" >/dev/null 2>&1 ||
  [[ ! -x build/tools_build/aic_lint ]]; then
  echo "lint: cannot build aic_lint; failing closed (no fallback check)"
  exit 1
fi

status=0
echo "lint: running aic_lint (token-level analyzer, DESIGN.md §14)"
if ! build/tools_build/aic_lint --root .; then
  status=1
fi

# --- clang-tidy (optional: profile in .clang-tidy) ---------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  build_dir=build
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    cmake -B "$build_dir" -S . >/dev/null  # exports compile_commands.json
  fi
  echo "lint: running clang-tidy over src/ (profile: .clang-tidy)"
  if ! find src -name '*.cc' -print0 \
    | xargs -0 -n8 clang-tidy -p "$build_dir" --quiet; then
    status=1
  fi
else
  echo "lint: clang-tidy not installed; skipping (aic_lint still enforced)"
fi

if ((status == 0)); then
  echo "lint: OK"
fi
exit "$status"
