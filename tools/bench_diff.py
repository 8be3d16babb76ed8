#!/usr/bin/env python3
"""Compare two metrics snapshots and flag performance regressions.

A snapshot is a JSON-lines file of tilq metrics records (docs/METRICS.md,
schema version >= 1) as written by `tools/bench_snapshot.py` (the
`tilq_bench_snapshot` CMake target) or by any bench binary running with
TILQ_METRICS=<path>. Records are grouped by (source, matrix, config);
repeated records for the same key are collapsed to their median
`median_ms`, which suppresses one-off noise between runs.

Per-key verdicts:
  REGRESSION  new median slower by more than --threshold (relative)
  IMPROVED    new median faster by more than --threshold
  OK          within the noise band
  NEW / GONE  key present in only one snapshot (informational)

The exit code is the contract CI relies on: non-zero iff at least one
REGRESSION (missing keys alone do not fail the diff). The work counters
ride along as a second signal: the kernel is deterministic, so a change
in flops-per-run means the *work* changed, not the machine — those are
flagged even when the timing stayed inside the noise band.

    bench_diff.py BASELINE.json CURRENT.json [--threshold 0.10]
    bench_diff.py --self-test     # harness check, used by CTest

Counts mode checks the exact counts of repository-benchmark runs
(benchmark/run.py --trace 1) against the committed trajectories:

    bench_diff.py --counts RUN... [--workload W --seed N]

Each RUN is a run.py result object: bare (run.py's stdout, whose last line
is the object; name the run with --workload/--seed), or inside an object
that names it (run.py's results file, a BENCH_<n>.json runs[] entry, or a
whole BENCH_<n>.json). A run's reference is the change-side traced run of
the same workload and seed in the newest BENCH_<n>.json of the repository
root that holds one, so a trajectory need record only the workloads its
change measured. Counts do not depend on the machine, so any difference
fails.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The exact counts of a traced run.py result: the plan, the kernel's work,
# and every accumulator event (any "accum." metric).
EXACT_COUNTS = ("plan.flop_total", "plan.row_tiles", "plan.hybrid_decisions",
                "plan.blocked_dense_tiles", "plan.blocked_sparse_tiles",
                "plan.hub_splits", "kernel.tiles", "kernel.output_nnz")


def load_snapshot(path: str) -> dict:
    """{(source, matrix, config): {"ms": median, "flops": per-run flops}}"""
    groups = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                sys.exit(f"{path}:{line_no}: not valid JSON: {error}")
            if "tilq_metrics" not in record:
                continue  # foreign line in a shared sink: skip, don't fail
            key = (record.get("source", ""), record.get("matrix", ""),
                   record.get("config", ""))
            runs = max(1, record.get("runs", 1))
            flops = (record.get("counters") or {}).get("flops", 0) / runs
            groups.setdefault(key, []).append(
                {"ms": record.get("median_ms", 0.0), "flops": flops})
    if not groups:
        sys.exit(f"{path}: no tilq metrics records found")
    return {
        key: {
            "ms": statistics.median(r["ms"] for r in records),
            "flops": statistics.median(r["flops"] for r in records),
        }
        for key, records in groups.items()
    }


def diff_snapshots(baseline: dict, current: dict, threshold: float) -> list:
    """[(key, verdict, detail)] for every key in either snapshot."""
    results = []
    for key in sorted(set(baseline) | set(current)):
        if key not in current:
            results.append((key, "GONE", "key absent from current snapshot"))
            continue
        if key not in baseline:
            results.append((key, "NEW", "key absent from baseline snapshot"))
            continue
        old, new = baseline[key], current[key]
        if old["ms"] <= 0.0:
            results.append((key, "OK", "baseline time is zero; skipped"))
            continue
        change = (new["ms"] - old["ms"]) / old["ms"]
        detail = f"{old['ms']:.3f} ms -> {new['ms']:.3f} ms ({change:+.1%})"
        if old["flops"] > 0 and abs(new["flops"] - old["flops"]) > \
                0.01 * old["flops"]:
            detail += (f"; WORK CHANGED: {old['flops']:.0f} -> "
                       f"{new['flops']:.0f} flops/run")
        if change > threshold:
            results.append((key, "REGRESSION", detail))
        elif change < -threshold:
            results.append((key, "IMPROVED", detail))
        else:
            results.append((key, "OK", detail))
    return results


def report(results: list) -> int:
    regressions = 0
    for (source, matrix, config), verdict, detail in results:
        print(f"{verdict:10s} {source} | {matrix} | {config}")
        print(f"           {detail}")
        regressions += verdict == "REGRESSION"
    total = len(results)
    print(f"\n{total} configuration(s) compared, {regressions} regression(s)")
    return 1 if regressions else 0


def synthetic_record(matrix: str, config: str, median_ms: float,
                     flops: int = 120000) -> str:
    return json.dumps({
        "tilq_metrics": 2, "source": "selftest", "matrix": matrix,
        "config": config, "runs": 4, "median_ms": median_ms,
        "counters": {"flops": 4 * flops}, "hw": None, "imbalance": None,
        "threads": [],
    })


def self_test() -> int:
    """Build synthetic snapshots and check every verdict path."""
    import tempfile

    def write(lines):
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        handle.write("\n".join(lines) + "\n")
        handle.close()
        return handle.name

    base = write([
        synthetic_record("graphA", "cfg1", 10.0),
        synthetic_record("graphA", "cfg1", 10.2),  # repeat: median collapses
        synthetic_record("graphA", "cfg2", 5.0),
        synthetic_record("graphB", "cfg1", 2.0),
    ])
    # cfg1/graphA slowed by 50% (the injected regression), cfg2 within
    # noise, graphB improved beyond the threshold.
    current = write([
        synthetic_record("graphA", "cfg1", 15.0),
        synthetic_record("graphA", "cfg2", 5.2),
        synthetic_record("graphB", "cfg1", 1.0, flops=90000),
    ])

    results = diff_snapshots(load_snapshot(base), load_snapshot(current),
                             threshold=0.10)
    verdicts = {key: verdict for key, verdict, _ in results}
    expected = {
        ("selftest", "graphA", "cfg1"): "REGRESSION",
        ("selftest", "graphA", "cfg2"): "OK",
        ("selftest", "graphB", "cfg1"): "IMPROVED",
    }
    if verdicts != expected:
        print(f"self-test FAILED: got {verdicts}, expected {expected}")
        return 1
    if not counts_self_test():
        return 1
    if report(results) != 1:
        print("self-test FAILED: injected regression did not set exit code")
        return 1
    details = {key: detail for key, _, detail in results}
    if "WORK CHANGED" not in details[("selftest", "graphB", "cfg1")]:
        print("self-test FAILED: flop drift not flagged")
        return 1

    # A snapshot diffed against itself must be all-OK with exit 0.
    clean = diff_snapshots(load_snapshot(base), load_snapshot(base), 0.10)
    if any(verdict != "OK" for _, verdict, _ in clean) or report(clean) != 0:
        print("self-test FAILED: identical snapshots did not compare clean")
        return 1
    print("self-test passed")
    return 0


def exact_counts(result: dict) -> dict:
    """{metric: value} of the exact counts in one run.py result object."""
    metrics = result.get("metrics", {})
    return {name: entry["value"] for name, entry in metrics.items()
            if name in EXACT_COUNTS or name.startswith("accum.")}


def load_runs(path: str, workload=None, seed=None) -> list:
    """[(workload, seed, result)] from a file holding run.py result
    objects; see the module docstring for the accepted shapes."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        try:
            data = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            data = None
    if not isinstance(data, dict):
        sys.exit(f"{path}: no run.py result object found")
    if "runs" in data:
        return [(run["workload"], run["seed"], run["result"])
                for run in data["runs"] if run.get("trace", 1)]
    if "result" in data:
        return [(data["workload"], data["seed"], data["result"])]
    if workload is None or seed is None:
        sys.exit(f"{path}: a bare result object needs --workload and --seed")
    return [(workload, seed, data)]


def trajectories() -> list:
    """[(name, contents)] of the committed BENCH_<n>.json files, newest
    (largest n) first."""
    numbered = sorted(
        ((int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
         if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))),
        reverse=True)
    return [(path.name, json.loads(path.read_text(encoding="utf-8")))
            for _, path in numbered]


def reference_counts(trajectories: list, workload: str, seed: int):
    """(name, exact counts) of the change-side traced runs of (workload,
    seed) in the newest trajectory that has any, or None; those runs must
    agree."""
    for name, trajectory in trajectories:
        found = [exact_counts(run["result"])
                 for run in trajectory.get("runs", [])
                 if run.get("side") == "change" and run.get("trace") == 1
                 and run["workload"] == workload and run["seed"] == seed]
        if found:
            if any(counts != found[0] for counts in found):
                sys.exit(f"{name}: the traced {workload} seed {seed} runs "
                         "disagree on their exact counts")
            return name, found[0]
    return None


def diff_counts(runs: list, trajectories: list) -> list:
    """[(workload, seed, problem)] for every run whose exact counts differ
    from its reference's; an empty list means every count matched."""
    problems = []
    for workload, seed, result in runs:
        reference = reference_counts(trajectories, workload, seed)
        if reference is None:
            problems.append((workload, seed, "no change-side traced run in "
                             "any BENCH_<n>.json"))
            continue
        name, want = reference
        got = exact_counts(result)
        for metric in sorted(set(want) | set(got)):
            if got.get(metric) != want.get(metric):
                problems.append((workload, seed, f"{metric}: {name} "
                                 f"{want.get(metric)}, run {got.get(metric)}"))
    return problems


def report_counts(runs: list, problems: list) -> int:
    for workload, seed, problem in problems:
        print(f"COUNT DIFFERS {workload} seed {seed}: {problem}")
    print(f"{len(runs)} run(s) checked, {len(problems)} count difference(s)")
    return 1 if problems else 0


def counts_self_test() -> bool:
    """Counts mode on synthetic runs: equal counts pass, a changed count
    fails and names the metric, parent-side runs are not the reference, the
    newest trajectory holding a run wins, an older one serves a workload
    the newest lacks, and a workload none holds fails."""
    def result(inserts, nnz=110221):
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": {
            "plan.flop_total": {"value": 17275874, "unit": "count"},
            "kernel.output_nnz": {"value": nnz, "unit": "count"},
            "accum.inserts": {"value": inserts, "unit": "count"},
            "call.ms.road": {"value": 1.5, "unit": "ms"}}}

    def run(side, workload, inserts, trace=1):
        return {"side": side, "workload": workload, "seed": 1,
                "trace": trace, "result": result(inserts)}

    newest = {"runs": [run("parent", "w", 7), run("change", "w", 3),
                       {"side": "change", "workload": "w", "seed": 1,
                        "trace": 0, "result": {"metrics": {}}}]}
    older = {"runs": [run("change", "w", 9), run("change", "v", 5)]}
    known = [("BENCH_2.json", newest), ("BENCH_1.json", older)]
    slower = result(3)
    slower["metrics"]["call.ms.road"]["value"] = 4.5  # timings are not counts
    if diff_counts([("w", 1, slower), ("v", 1, result(5))], known):
        print("self-test FAILED: equal counts reported as different")
        return False
    changed = diff_counts([("w", 1, result(4))], known)
    if len(changed) != 1 or "accum.inserts" not in changed[0][2] \
            or "BENCH_2.json" not in changed[0][2]:
        print(f"self-test FAILED: a changed count gave {changed}")
        return False
    if report_counts([("w", 1, result(4))], changed) != 1:
        print("self-test FAILED: a changed count did not set the exit code")
        return False
    if not diff_counts([("w", 2, result(3))], known):
        print("self-test FAILED: a run without a reference passed")
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="baseline snapshot (JSON lines)")
    parser.add_argument("current", nargs="?", help="current snapshot (JSON lines)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown tolerated as noise "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the harness itself (synthetic data)")
    parser.add_argument("--counts", nargs="+", metavar="RUN",
                        help="check the exact counts of run.py results "
                             "against the committed BENCH_<n>.json files")
    parser.add_argument("--workload", help="workload of a bare result")
    parser.add_argument("--seed", type=int, help="seed of a bare result")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.counts:
        runs = [run for path in args.counts
                for run in load_runs(path, args.workload, args.seed)]
        return report_counts(runs, diff_counts(runs, trajectories()))
    if not args.baseline or not args.current:
        parser.error("need BASELINE and CURRENT snapshots (or --self-test)")
    results = diff_snapshots(load_snapshot(args.baseline),
                             load_snapshot(args.current), args.threshold)
    return report(results)


if __name__ == "__main__":
    sys.exit(main())
