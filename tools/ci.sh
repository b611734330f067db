#!/bin/sh
# CI entry point: style check, plain build + tests, then an ASan+UBSan
# build + tests. Also lints the example IDL/PDL with flexcheck.
#
#   tools/ci.sh                          # everything
#   SKIP_SAN=1 tools/ci.sh               # plain build only (fast local loop)
#   FLEXRPC_SANITIZE=thread tools/ci.sh  # + a TSan build + tests (flextrace
#                                        #   counters are relaxed atomics;
#                                        #   this suite keeps them honest)
#   JOBS=4 tools/ci.sh                   # cap build/test parallelism
set -eu

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}

echo "== format check =="
sh tools/format.sh --check

echo "== clang-tidy (analysis + codegen) =="
sh tools/tidy.sh

run_suite() {
  build_dir=$1
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
  # The full run above includes the fault-injection soak (label: fault)
  # and the replica-death failover sweep (label: failover); repeat them as
  # their own step so lossy-wire and failover regressions surface with a
  # dedicated line in every configuration, sanitizers included.
  echo "== fault-injection + failover + fleet soak ($build_dir) =="
  ctest --test-dir "$build_dir" -L "fault|failover|fleet" \
    --output-on-failure -j "$JOBS"
}

echo "== plain build + tests =="
run_suite build

echo "== perfbench build + tests + output checks =="
# perfbench/ is a standalone CMake project that compiles ../src itself;
# building it here catches a library change that breaks the benchmark.
# Its tests include the RunFleet equivalence check.
cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build/perfbench -j "$JOBS" \
  --target perfbench perfbench_tests
ctest --test-dir .bench_build/perfbench --output-on-failure
# One short run of every workload, untraced and traced: each run makes the
# benchmark's own output checks (fleet replies echo their [xid][conn] at
# the requested length, nfs_read's user buffer equals the server's file,
# traced runs close their attribution) and exits non-zero if one fails.
for workload in nfs_read fleet_steady fleet_overload_lossy; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace"
  done
done

echo "== flexcheck on the examples =="
# --check runs the plan verifier over every operation, so the marshal
# plans of the shipped interfaces are audited here rather than at bind.
./build/tools/idlc/idlc --idl examples/idl/syslog.idl \
  --client-pdl examples/idl/syslog_client.pdl \
  --lint --Werror --check
./build/tools/idlc/idlc --idl examples/idl/nfs.x --sun \
  --client-pdl examples/idl/nfs_client.pdl \
  --lint --Werror --check

echo "== flexrec smoke check =="
# One recorded smoke rep of the pipelined (1×W) bench, then render its
# report — proves the recorder, the serializer, and the attribution
# pipeline work end to end on every CI run.
rec_dir=build/flexrec-smoke
mkdir -p "$rec_dir"
./build/bench/bench_pipeline_nfs --smoke --record "--json_dir=$rec_dir" \
  > /dev/null
./build/tools/flextrace/flexrec_report "$rec_dir/REC_pipeline_nfs.json" \
  --limit=8

if [ "${SKIP_SAN:-}" != 1 ]; then
  echo "== ASan+UBSan build + tests =="
  run_suite build-asan -DFLEXRPC_SANITIZE=address,undefined
fi

if [ "${FLEXRPC_SANITIZE:-}" = thread ]; then
  echo "== TSan build + tests =="
  run_suite build-tsan -DFLEXRPC_SANITIZE=thread
fi

echo "ci.sh: all green"
