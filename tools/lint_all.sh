#!/usr/bin/env sh
# Runs both static-analysis passes — plum-lint (rank-safety & determinism,
# token-stream checks) and plum-scale (replicated-state & scalability,
# project-wide index) — and merges their reports into one JSON artifact.
#
# Usage: tools/lint_all.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR  cmake build tree holding the tools (default: build)
#   OUT_JSON   merged report path (default: plum_static_analysis.json)
#
# Exit status: 0 when both passes are clean, 1 when either found
# unsuppressed/unannotated diagnostics, 2 on usage/build errors.
set -u

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-plum_static_analysis.json}"
LINT="$BUILD_DIR/tools/plum-lint/plum-lint"
SCALE="$BUILD_DIR/tools/plum-lint/plum-scale"

for tool in "$LINT" "$SCALE"; do
  if [ ! -x "$tool" ]; then
    echo "lint_all: missing $tool (build the plum-lint and plum-scale targets first)" >&2
    exit 2
  fi
done

TMPDIR_ALL="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_ALL"' EXIT

# plum-lint additionally covers the plum tool; plum-scale's scaling
# contract applies to the library sources under src/.
"$LINT" --json "$TMPDIR_ALL/lint.json" src tools/plum
lint_status=$?
"$SCALE" --json "$TMPDIR_ALL/scale.json" src
scale_status=$?

# Merge without jq: both reports are self-contained JSON objects, so the
# combined artifact just nests them under their pass names.
{
  printf '{\n"schema": "plum-static-analysis/1",\n"plum_lint": '
  cat "$TMPDIR_ALL/lint.json"
  printf ',\n"plum_scale": '
  cat "$TMPDIR_ALL/scale.json"
  printf '\n}\n'
} > "$OUT_JSON"

echo "lint_all: merged report at $OUT_JSON (plum-lint exit $lint_status, plum-scale exit $scale_status)"
if [ "$lint_status" -ne 0 ] || [ "$scale_status" -ne 0 ]; then
  exit 1
fi
exit 0
