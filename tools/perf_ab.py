#!/usr/bin/env python3
"""A/B-compares two revisions on the repository benchmark (BENCHMARK.json).

    python3 tools/perf_ab.py --parent HEAD~1 --change HEAD --seed 41
    python3 tools/perf_ab.py --parent HEAD --change "$(git write-tree)" \\
        --seed 41 --workloads nfs_read --pairs 10 --seconds 30
    python3 tools/perf_ab.py --self-test

A revision is anything `git archive` accepts: a commit, or a tree (after
`git add -A`, `git write-tree` names the working state without making a
commit). Each one is exported into its own temporary directory outside the
repository (--workdir, default the system temp directory), where that
export's perfbench/run.py builds and runs it, so the two sides share no
build tree. An export rather than a `git worktree`: it registers nothing
in the repository, so an interrupted run leaves nothing to prune there.
Every pair runs each workload once per side, alternating which side runs
first; --seconds defaults to BENCHMARK.json's run_seconds.

For each workload and each end-to-end metric of BENCHMARK.json the report
gives both sides' median [first quartile, third quartile], the change of
the median, and the pairs the change won (ties count for neither). "claim"
says whether the claim rule holds: the change wins at least 9 in 10 pairs
and its median is better than the parent's by more than the parent's
quartile spread. "bound" says whether the change's median stays within the
metric's regression bound. Quartiles interpolate linearly between ranks.

Exit status: 0 when every run reported, 1 when a run reports
"correct": false, reports nothing, or a larger share of the change's calls
fails than of the parent's on some workload; 2 when a side does not build.
Python standard library only.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_WIN_SHARE = 0.9  # 9 of 10 pairs
RUN_TIMEOUT_S = 1200   # a cold build plus one run


def quantile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def compare(parent, change, better, bound):
    """Compares one metric's paired runs (parent[i] ran next to change[i])."""
    sign = -1.0 if better == "lower" else 1.0
    p1, pm, p3 = (quantile(parent, q) for q in (0.25, 0.5, 0.75))
    c1, cm, c3 = (quantile(change, q) for q in (0.25, 0.5, 0.75))
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if pm != 0:
        delta_pct = 100.0 * (cm - pm) / abs(pm)
    else:
        delta_pct = 0.0 if cm == 0 else math.copysign(math.inf, cm)
    claim = (won >= math.ceil(CLAIM_WIN_SHARE * len(parent)) and
             sign * (cm - pm) > p3 - p1)
    if better == "lower":
        within = cm <= pm * (1.0 + bound)
    else:
        within = cm >= pm * (1.0 - bound)
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3),
            "delta_pct": delta_pct, "won": won, "pairs": len(parent),
            "claim": claim, "within_bound": within}


def failure_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def fmt(v):
    if v != v or math.isinf(v):
        return str(v)
    if abs(v) >= 1000:
        return f"{v:,.0f}".replace(",", " ")
    if abs(v) >= 1:
        return f"{v:.2f}"
    return f"{v:.4g}"


def cell(stats):
    m, q1, q3 = stats
    return f"{fmt(m)} [{fmt(q1)}, {fmt(q3)}]"


def clock_of(metric):
    return "virt" if metric.startswith("virt_") else "host"


def report(workloads, metrics, runs):
    """Prints the table; returns the list of problems found."""
    problems = []
    print("| workload | metric | clock | unit | parent | change | "
          "Δ median | won | claim | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        parent, change = runs[w]["parent"], runs[w]["change"]
        for m in metrics:
            name = m["name"]
            try:
                pv = [r["metrics"][name]["value"] for r in parent]
                cv = [r["metrics"][name]["value"] for r in change]
            except KeyError:
                problems.append(f"{w}: a run does not report {name}")
                continue
            r = compare(pv, cv, m["better"], m["bound"])
            print(f"| {w} | `{name}` | {clock_of(name)} | {m['unit']} | "
                  f"{cell(r['parent'])} | {cell(r['change'])} | "
                  f"{r['delta_pct']:+.1f}% | {r['won']}/{r['pairs']} | "
                  f"{'yes' if r['claim'] else 'no'} | "
                  f"{'ok' if r['within_bound'] else 'OVER'} |")
        for side in ("parent", "change"):
            for i, run in enumerate(runs[w][side]):
                if run.get("correct") is not True:
                    problems.append(f"{w}: {side} run {i + 1} is not correct")
        ps, cs = failure_share(parent), failure_share(change)
        if cs > ps:
            problems.append(f"{w}: the change fails {cs:.3g} of its calls, "
                            f"the parent {ps:.3g}")
    return problems


def export(rev, dest):
    """Writes the files of `rev` into `dest` (git archive, no worktree)."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                           stdout=subprocess.PIPE)
    with tarfile.open(fileobj=git.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if git.wait() != 0:
        sys.exit(f"perf_ab: git archive {rev} failed")


def run_side(checkout, workload, seed, seconds):
    """Runs one workload in one export; returns its JSON result or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=RUN_TIMEOUT_S).stdout
    except subprocess.TimeoutExpired:
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test():
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile(list(range(1, 11)), 0.25) == 3.25
    assert quantile(list(range(1, 11)), 0.75) == 7.75
    parent = [100, 104, 98, 101, 99, 103, 97, 100, 102, 96]
    # 9 wins, one tie (pair 4): the claim needs 9 of 10.
    change = [70, 72, 69, 101, 73, 68, 70, 74, 71, 67]
    r = compare(parent, change, "lower", 0.25)
    assert r["won"] == 9 and r["pairs"] == 10, r
    assert r["parent"] == (100.0, 98.25, 101.75), r
    assert r["change"] == (70.5, 69.25, 72.75), r
    assert abs(r["delta_pct"] + 29.5) < 1e-9, r
    assert r["claim"] and r["within_bound"], r
    # 8 wins fail the claim, however large the gain.
    r = compare(parent, [70] * 8 + [200, 200], "lower", 0.25)
    assert r["won"] == 8 and not r["claim"], r
    # 10 wins by less than the parent's quartile spread (3.5): no claim.
    r = compare(parent, [p - 1 for p in parent], "lower", 0.25)
    assert r["won"] == 10 and not r["claim"] and r["within_bound"], r
    # Higher is better: a 12% loss breaks a 0.1 bound, 8% does not.
    r = compare([1000.0] * 10, [880.0] * 10, "higher", 0.1)
    assert r["won"] == 0 and not r["within_bound"], r
    r = compare([1000.0] * 10, [920.0] * 10, "higher", 0.1)
    assert r["within_bound"] and abs(r["delta_pct"] + 8.0) < 1e-9, r
    # Equal runs: no win, no claim, within bound.
    r = compare([5.0] * 10, [5.0] * 10, "lower", 0.1)
    assert r["won"] == 0 and not r["claim"] and r["within_bound"], r
    assert failure_share([{"attempted": 10, "failed": 1},
                          {"attempted": 30, "failed": 1}]) == 0.05
    # The report: one row per metric; a run that is not correct, or a
    # larger failure share than the parent's, is a problem.
    metrics = [{"name": "host_ns_per_call", "unit": "ns", "better": "lower",
                "bound": 0.25}]

    def run(value, correct=True, failed=0):
        return {"correct": correct, "attempted": 100, "failed": failed,
                "metrics": {"host_ns_per_call": {"value": value}}}

    runs = {"w": {"parent": [run(p) for p in parent],
                  "change": [run(c) for c in change]}}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert report(["w"], metrics, runs) == []
    assert ("| w | `host_ns_per_call` | host | ns | 100.00 [98.25, 101.75] "
            "| 70.50 [69.25, 72.75] | -29.5% | 9/10 | yes | ok |"
            in out.getvalue()), out.getvalue()
    runs["w"]["change"][3] = run(101, correct=False, failed=5)
    with contextlib.redirect_stdout(io.StringIO()):
        problems = report(["w"], metrics, runs)
    assert len(problems) == 2, problems
    assert fmt(7859.4) == "7 859" and fmt(309.276) == "309.28"
    assert fmt(0.01823) == "0.01823"
    print("perf_ab self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the baseline revision")
    parser.add_argument("--change", help="the revision under test")
    parser.add_argument("--workloads",
                        help="comma-separated (default: every workload)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workdir", default=tempfile.gettempdir(),
                        help="where the two exports are made and removed")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None or args.seed is None:
        parser.error("--parent, --change and --seed are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            parser.error(f"unknown workload {w!r} (BENCHMARK.json: {known})")
    seconds = args.seconds or bench["run_seconds"]

    top = tempfile.mkdtemp(prefix="perf_ab-", dir=args.workdir)
    try:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            sides[side] = os.path.join(top, side)
            export(rev, sides[side])
            print(f"perf_ab: building {side} ({rev})", file=sys.stderr)
            if run_side(sides[side], workloads[0], args.seed, 1) is None:
                print(f"perf_ab: {side} ({rev}) does not build or run",
                      file=sys.stderr)
                return 2
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for w in workloads:
                for side in order:
                    result = run_side(sides[side], w, args.seed, seconds)
                    if result is None:
                        result = {"correct": None, "metrics": {}}
                    runs[w][side].append(result)
                    values = {k: v["value"]
                              for k, v in result["metrics"].items()}
                    print(f"perf_ab: pair {i + 1}/{args.pairs} {w} {side}: "
                          f"correct={result.get('correct')} "
                          f"failed={result.get('failed')} "
                          f"{json.dumps(values, sort_keys=True)}",
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(top, ignore_errors=True)

    print(f"parent {args.parent}, change {args.change}, seed {args.seed}, "
          f"{args.pairs} pairs of {seconds} s runs")
    problems = report(workloads, bench["end_to_end"], runs)
    for p in problems:
        print(f"perf_ab: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
