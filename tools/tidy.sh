#!/bin/sh
# Runs clang-tidy (config: .clang-tidy) over the static-analysis and
# code-generation layers — the flexcheck/flexspec stages where a subtle
# bug silently mis-verifies or mis-emits specialized marshal code. Skips
# gracefully when clang-tidy is not installed so tools/ci.sh works in
# minimal containers (mirrors tools/format.sh).
#
#   tools/tidy.sh                 # lint src/analysis + src/codegen + src/pdl/lint.cc
#   BUILD_DIR=build-asan tools/tidy.sh
set -eu

cd "$(dirname "$0")/.."

CLANG_TIDY=${CLANG_TIDY:-clang-tidy}
if ! command -v "$CLANG_TIDY" >/dev/null 2>&1; then
  echo "tidy.sh: $CLANG_TIDY not found; skipping" >&2
  exit 0
fi

BUILD_DIR=${BUILD_DIR:-build}
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  # CMAKE_EXPORT_COMPILE_COMMANDS is on in CMakeLists.txt; a configure is
  # enough to produce the database.
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi

FILES=$(git ls-files 'src/analysis/*.cc' 'src/codegen/*.cc' 'src/pdl/lint.cc')
# shellcheck disable=SC2086
"$CLANG_TIDY" -p "$BUILD_DIR" --quiet $FILES
echo "tidy.sh: all files clean"
