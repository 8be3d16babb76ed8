#!/usr/bin/env python3
"""Runner of the repository benchmark (BENCHMARK.json, benchmark/README.md).

One workload, as the benchmark command:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds benchmark/tilq_bench into build-benchmark/ on first use, removes
every TILQ_* variable from the environment, and runs ROUNDS processes of
S / ROUNDS measured seconds each on the inputs of seed N. It prints one
line per metric (name, value, unit, spread, sample count) and, as its last
line, the result object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics, derived from the Chrome traces of traced rounds, with untraced
rounds between them for the tracing overhead.

Other modes:

    --full-set            every workload, rounds interleaved across workloads
    --check-stability     two full sets; each end-to-end metric must agree
                          within its bound (evidence: benchmark/results/)
    --spread N            N seeds per workload; quartile spread of each
                          end-to-end metric against its bound
    --self-test           checks of the statistics helpers below
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-benchmark"
BINARY = BUILD_DIR / "tilq_bench"
RESULTS_DIR = BENCH_DIR / "results"
ROUNDS = 8
ROUND_TIMEOUT_S = 120
KINDS = ("road", "circuit", "web", "social")
# The bounded latency tail. p95 and p99 have enough samples on every
# workload, but on a shared 4-vCPU VM they moved by more than the largest
# allowed bound between runs; p90 moves with the median.
TAIL = 0.9
MIN_BEYOND = 10  # samples a reported percentile needs above it


class BenchError(Exception):
    pass


# --- statistics -------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of all samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise BenchError("percentile of no samples")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def summary(samples):
    """(median, q3 - q1, n) with quartiles as statistics.quantiles(n=4)
    gives them; a single sample has no spread."""
    samples = list(samples)
    if not samples:
        return 0.0, 0.0, 0
    if len(samples) == 1:
        return float(samples[0]), 0.0, 1
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return float(statistics.median(samples)), q3 - q1, len(samples)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    med, iqr, _ = summary(values)
    return iqr / med if med else math.inf


def agrees(first, second, bound):
    """True when two measurements of one metric differ by at most bound,
    as a share of the first, in either direction."""
    return abs(second - first) <= bound * abs(first)


# --- building and running ---------------------------------------------------


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def scrubbed_env():
    """The caller's environment without TILQ_* variables, so autotuning,
    telemetry, fault injection and the metrics and trace sinks stay off."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TILQ_")}


def build():
    """Configures (until tilq_bench first exists) and builds tilq_bench.
    Build output goes to stderr so stdout carries only results, and the
    compiler's temporary files stay inside the build directory."""
    steps = []
    if not BINARY.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "tilq_bench",
                  "-j", jobs])
    env = scrubbed_env()
    env["TMPDIR"] = str(BUILD_DIR / "tmp")
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    for step in steps:
        if subprocess.run(step, env=env, stdout=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(step))


def run_round(workload, seconds, seed, trace_path=None):
    """One tilq_bench process; returns its parsed JSON line."""
    cmd = [str(BINARY), "--workload", workload, "--seconds", repr(seconds),
           "--seed", str(seed)]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, env=scrubbed_env(), capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: round timed out after {e.timeout} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", True):
        raise BenchError(f"{workload}: exit {proc.returncode}")
    return result


def round_checks(rounds):
    """Violations across rounds of one workload and seed: outputs checked
    by tilq_bench, and totals that the seed alone fixes."""
    problems = [f"round {i}: {v}" for i, r in enumerate(rounds)
                for v in r["violations"]]
    for key in ("input_nnz", "output_nnz", "arrivals"):
        if len({r[key] for r in rounds}) > 1:
            problems.append(f"{key} differs across rounds of one seed")
    return problems


# --- metrics ----------------------------------------------------------------


def end_to_end(rounds):
    """name -> (value, iqr, n) over untraced rounds. Medians across rounds,
    except the tail percentile, which pools every round's samples."""
    lat = [x for r in rounds for x in r["lat_ms"]]
    return {
        "setup_s": summary(r["setup_s"] for r in rounds),
        "ops_per_s": summary(r["ops"] / r["measured_s"] for r in rounds),
        "lat_p50_ms": summary(percentile(r["lat_ms"], 0.5) for r in rounds),
        "lat_p90_ms": (percentile(lat, TAIL), 0.0, len(lat)),
        "peak_rss_mb": summary(r["peak_rss_mb"] for r in rounds),
    }


def self_times(events):
    """Span id -> duration (us) minus the spans recorded as its children."""
    covered = defaultdict(float)
    for e in events:
        covered[e["args"]["parent"]] += e["dur"]
    return {e["args"]["span"]: e["dur"] - covered[e["args"]["span"]]
            for e in events}


def per_layer(traces, traced_rounds, untraced_rounds):
    """name -> (value, iqr, n) from traced rounds. A metric whose layer the
    workload does not cross reads 0 with n = 0."""
    spans = defaultdict(list)  # name -> [(event, self time)]
    for trace in traces:
        events = trace["traceEvents"]
        own = self_times(events)
        for e in events:
            spans[e["name"]].append((e, own[e["args"]["span"]]))

    def pick(name, value, kind=None, where=None):
        return [value(e, own) for e, own in spans[name]
                if (kind is None or e["cat"] == kind)
                and (where is None or where(e))]

    def arg(key):
        return lambda e, own: e["args"][key]

    def dur_ms(e, own):
        return e["dur"] / 1e3

    def exact(name, key):
        """Sum over the probed structures of one round; the rounds agree."""
        per_round = {sum(e["args"][key] for e in trace["traceEvents"]
                         if e["name"] == name) for trace in traces}
        if len(per_round) > 1:
            raise BenchError(f"{name}.{key} differs across rounds")
        return per_round.pop(), 0.0, len(spans[name]) // len(traces)

    def p99(samples):
        return (percentile(samples, 0.99), 0.0, len(samples)) if samples else (0.0, 0.0, 0)

    m = {}
    m["gen.graphs_ms"] = summary(pick("gen.graphs", dur_ms))
    m["bench.oracle_ms"] = summary(pick("oracle", dur_ms))
    m["bench.gen_lag_p99_ms"] = p99(pick("op", arg("lag_ms"),
                                          where=lambda e: "lag_ms" in e["args"]))
    traced_p50 = statistics.median(percentile(r["lat_ms"], 0.5) for r in traced_rounds)
    plain_p50 = statistics.median(percentile(r["lat_ms"], 0.5) for r in untraced_rounds)
    m["bench.trace_overhead_frac"] = (traced_p50 / plain_p50 - 1.0, 0.0,
                                      len(traced_rounds))

    # plan
    fp_us = {kind: statistics.median(pick("fingerprint", arg("fp_us"), kind))
             for kind in KINDS if pick("fingerprint", arg("fp_us"), kind)}
    m["plan.fingerprint_us"] = summary(pick("fingerprint", arg("fp_us")))
    for kind in KINDS:
        m[f"plan.fingerprint_us.{kind}"] = summary(pick("fingerprint", arg("fp_us"), kind))
        m[f"plan.build_ms.{kind}"] = summary(pick("plan", dur_ms, kind))
    m["engine.plan_ms_p50"] = summary(
        pick("submit", arg("plan_ms"), where=lambda e: not e["args"]["plan_cache_hit"]))
    for metric, key in (("plan.flop_total", "flop_total"),
                        ("plan.row_tiles", "row_tiles"),
                        ("plan.hybrid_decisions", "hybrid_decisions"),
                        ("plan.blocked_dense_tiles", "dense_tiles"),
                        ("plan.blocked_sparse_tiles", "sparse_tiles"),
                        ("plan.hub_splits", "hub_splits")):
        m[metric] = exact("probe.plan", key)

    # one-shot call: call = plan + execute + unattributed;
    # execute = verify + compute + compact + unattributed
    def exec_self(e, own):
        a = e["args"]
        return (e["dur"] / 1e3 - a["verify_ms"] - a["compute_ms"] - a["compact_ms"])

    for kind in KINDS:
        m[f"call.ms.{kind}"] = summary(pick("call", dur_ms, kind))
        m[f"exec.verify_ms.{kind}"] = summary(pick("execute", arg("verify_ms"), kind))
        m[f"exec.unattributed_ms.{kind}"] = summary(pick("execute", exec_self, kind))
        m[f"kernel.compute_ms.{kind}"] = summary(pick("execute", arg("compute_ms"), kind))
        m[f"kernel.imbalance_ratio.{kind}"] = summary(
            pick("execute", arg("imbalance_ratio"), kind))
        m[f"compact.ms.{kind}"] = summary(pick("execute", arg("compact_ms"), kind))
    m["call.unattributed_frac"] = summary(pick("call", lambda e, own: own / e["dur"]))
    for metric, key in (("kernel.tiles", "tiles"),
                        ("kernel.output_nnz", "output_nnz"),
                        ("accum.inserts", "accum_inserts"),
                        ("accum.rejects", "accum_rejects"),
                        ("accum.hash_probes", "hash_probes"),
                        ("accum.hash_collisions", "hash_collisions"),
                        ("accum.rehashes", "accum_rehashes"),
                        ("accum.degrades", "accum_degrades")):
        m[metric] = exact("probe.execute", key)

    # engine: JobStats ride on the closed loop's get span and on the open
    # loop's op span
    jobs = pick("get", lambda e, own: e) + pick("op", lambda e, own: e,
                                                where=lambda e: "queue_ms" in e["args"])
    submit_us = pick("submit", lambda e, own: e["dur"])
    m["engine.submit_us_p50"] = summary(submit_us)
    m["engine.submit_us_p99"] = p99(submit_us)
    for stage in ("queue", "run"):
        samples = [e["args"][f"{stage}_ms"] for e in jobs]
        m[f"engine.{stage}_ms_p50"] = summary(samples)
        m[f"engine.{stage}_ms_p99"] = p99(samples)
    # The closed loop's client wakes up after the job completed: get time
    # past the job's own submit-to-done time.
    m["engine.wake_us_p50"] = summary(
        pick("get", lambda e, own: max(0.0, e["dur"] - e["args"]["total_ms"] * 1e3)))
    m["engine.heavy_p50_ms"] = summary(
        pick("op", dur_ms, "circuit", where=lambda e: "lag_ms" in e["args"]))

    windows = [e["args"] for e, _ in spans["window"]]

    def total(key):
        return sum(w[key] for w in windows)

    def ratio(num, den):
        return (total(num) / total(den) if windows and total(den) else 0.0, 0.0,
                len(windows))

    m["engine.plan_hit_ratio"] = ratio("plan_hits", "jobs_submitted")
    m["engine.tasks_per_job"] = ratio("tasks_executed", "jobs_completed")
    m["engine.expensive_ratio"] = ratio("jobs_expensive", "jobs_submitted")
    m["pool.steal_ratio"] = ratio("tasks_stolen", "tasks_executed")
    for metric, key in (("engine.deferred", "jobs_deferred"),
                        ("engine.shed", "jobs_shed"),
                        ("engine.rejected", "jobs_rejected"),
                        ("workspace.constructions", "workspace_constructions")):
        m[metric] = (total(key) if windows else 0.0, 0.0, len(windows))
    m["engine.peak_in_flight"] = (max((w["peak_in_flight"] for w in windows), default=0.0),
                                  0.0, len(windows))
    m["governor.high_water_mb"] = (
        max((w["memory_high_water_bytes"] for w in windows), default=0.0) / 2**20,
        0.0, len(windows))

    # Share of an engine query's time outside the attributed stages: the
    # probed fingerprint, plan build, queue, run, client wake-up and
    # generator lag. What is left is admission and task launch in submit.
    def engine_rest(op, submit, job):
        a = job["args"]
        attributed = (fp_us.get(op["cat"], 0.0) + submit["args"]["plan_ms"] * 1e3
                      + a["queue_ms"] * 1e3 + a["run_ms"] * 1e3
                      + a.get("lag_ms", 0.0) * 1e3)
        if job is not op:
            attributed += max(0.0, job["dur"] - a["total_ms"] * 1e3)
        return (op["dur"] - attributed) / op["dur"]

    rest = []
    for trace in traces:
        by_parent = defaultdict(dict)
        ops = []
        for e in trace["traceEvents"]:
            if e["name"] in ("submit", "get"):
                by_parent[e["args"]["parent"]][e["name"]] = e
            elif e["name"] == "op":
                ops.append(e)
        for op in ops:
            children = by_parent[op["args"]["span"]]
            if "submit" in children:
                rest.append(engine_rest(op, children["submit"],
                                        children.get("get", op)))
    m["engine.unattributed_frac"] = summary(rest)
    return m


# --- orchestration ----------------------------------------------------------


def measure_workload(workload, seed, seconds, traced):
    """ROUNDS rounds of one workload; returns (metrics, attempted, failed,
    problems). A traced run alternates traced and untraced rounds."""
    per_round = seconds / ROUNDS
    untraced, traced_rounds, traces = [], [], []
    for r in range(ROUNDS):
        if traced and r % 2 == 0:
            path = BUILD_DIR / "traces" / f"{workload}-seed{seed}-round{r}.json"
            traced_rounds.append(run_round(workload, per_round, seed, path))
            with open(path) as f:
                traces.append(json.load(f))
        else:
            untraced.append(run_round(workload, per_round, seed))
    everything = untraced + traced_rounds
    problems = round_checks(everything)
    metrics = (per_layer(traces, traced_rounds, untraced) if traced
               else end_to_end(untraced))
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    return metrics, attempted, failed, problems


def report(workload, seed, traced, spec, metrics, attempted, failed, problems):
    """Prints one line per metric and writes the results JSON; returns the
    benchmark result object."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for entry in listed:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} was not measured")
        value, iqr, n = metrics[name]
        print(f"{workload:16s} {name:34s} {value:14.6g} {entry['unit']:6s} "
              f"iqr {iqr:10.4g}  n {n}")
        out[name] = {"value": value, "unit": entry["unit"]}
    if "lat_p90_ms" in metrics:
        beyond = samples_beyond(metrics["lat_p90_ms"][2], TAIL)
        if beyond < MIN_BEYOND:
            print(f"warning: {workload} lat_p90_ms has {beyond} samples beyond "
                  f"it (want {MIN_BEYOND})", file=sys.stderr)
    for p in problems:
        print(f"invalid: {workload}: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": out}
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(traced)}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "traced": traced,
                   "problems": problems,
                   "metrics": {k: {"value": v, "iqr": i, "n": n}
                               for k, (v, i, n) in metrics.items()},
                   "result": result}, f, indent=1)
    return result


def full_set(spec, seed, seconds):
    """Every workload, rounds interleaved across workloads so slow phases
    of a shared machine hit every workload alike. Returns workload ->
    end-to-end metrics."""
    names = [w["name"] for w in spec["workloads"]]
    rounds = defaultdict(list)
    for _ in range(ROUNDS):
        for name in names:
            rounds[name].append(run_round(name, seconds / ROUNDS, seed))
    out = {}
    for name in names:
        problems = round_checks(rounds[name])
        if problems:
            raise BenchError(f"{name}: {problems}")
        out[name] = {k: v[0] for k, v in end_to_end(rounds[name]).items()}
    return out


def check_stability(spec, seed, seconds):
    """Two full sets of the same code and seed; every end-to-end metric must
    agree within its bound. Writes benchmark/results/stability.json."""
    sets = [full_set(spec, seed, seconds) for _ in range(2)]
    verdict, ok = {}, True
    for workload in sets[0]:
        verdict[workload] = {}
        for entry in spec["end_to_end"]:
            first = sets[0][workload][entry["name"]]
            second = sets[1][workload][entry["name"]]
            agree = agrees(first, second, entry["bound"])
            ok &= agree
            verdict[workload][entry["name"]] = {
                "first": first, "second": second,
                "change": (second - first) / first, "bound": entry["bound"],
                "agrees": agree}
            print(f"{workload:16s} {entry['name']:12s} {first:12.6g} "
                  f"{second:12.6g} {(second - first) / first:+8.2%} "
                  f"bound {entry['bound']:.0%} {'ok' if agree else 'DISAGREE'}")
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "stability.json", "w") as f:
        json.dump({"seed": seed, "seconds": seconds, "rounds": ROUNDS,
                   "sets": sets, "verdict": verdict, "agrees": ok}, f, indent=1)
    return ok


def check_spread(spec, first_seed, runs, seconds):
    """`runs` consecutive invocations per workload, each on its own seed.
    The quartile spread of each end-to-end metric except setup_s must stay
    within the metric's bound; below a third of it is the target. Writes
    benchmark/results/spread.json."""
    table, ok = {}, True
    for workload in spec["workloads"]:
        name = workload["name"]
        values = defaultdict(list)
        for seed in range(first_seed, first_seed + runs):
            metrics, _, failed, problems = measure_workload(name, seed, seconds,
                                                            False)
            if problems or failed:
                raise BenchError(f"{name} seed {seed}: {problems} failed={failed}")
            for k, (v, _, _) in metrics.items():
                values[k].append(v)
        table[name] = {}
        for entry in spec["end_to_end"]:
            vals = values[entry["name"]]
            spread = quartile_spread(vals)
            exempt = entry["name"] == "setup_s"
            within = exempt or spread <= entry["bound"]
            ok &= within
            table[name][entry["name"]] = {
                "values": vals, "median": statistics.median(vals),
                "spread": spread, "bound": entry["bound"], "within_bound": within,
                "below_third": exempt or spread < entry["bound"] / 3}
            verdict = ("exempt" if exempt else "ok" if spread < entry["bound"] / 3
                       else "within bound" if within else "WIDE")
            print(f"{name:16s} {entry['name']:12s} median "
                  f"{statistics.median(vals):12.6g} spread {spread:7.2%} "
                  f"bound {entry['bound']:.0%} {verdict}", flush=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "spread.json", "w") as f:
        json.dump({"first_seed": first_seed, "runs": runs, "seconds": seconds,
                   "rounds": ROUNDS, "workloads": table, "within_bounds": ok},
                  f, indent=1)
    return ok


def self_test():
    """Checks of the statistics helpers against hand-worked cases."""
    xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    med, iqr, n = summary(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    checks = [
        ("median", med == 5.5 and n == 10),
        ("iqr matches statistics.quantiles", iqr == q3 - q1 == 5.5),
        ("quartile spread", abs(quartile_spread(xs) - 1.0) < 1e-12),
        ("one sample", summary([3.0]) == (3.0, 0.0, 1)),
        ("nearest rank p50", percentile(xs, 0.5) == 5),
        ("nearest rank p99", percentile(range(1, 1001), 0.99) == 990),
        ("nearest rank p100", percentile(xs, 1.0) == 10),
        ("10 beyond p99 of 1000", samples_beyond(1000, 0.99) == 10),
        ("9 beyond p99 of 999", samples_beyond(999, 0.99) == 9),
        ("p90 needs 100 samples",
         samples_beyond(99, 0.9) < MIN_BEYOND <= samples_beyond(100, 0.9)),
        ("10% off agrees within a 10% bound",
         agrees(100, 110, 0.1) and agrees(100, 90, 0.1)),
        ("11% off disagrees in either direction",
         not agrees(100, 111, 0.1) and not agrees(100, 89, 0.1)),
    ]
    for name, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    return all(passed for _, passed in checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-set", action="store_true")
    parser.add_argument("--check-stability", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return 0 if self_test() else 1
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    try:
        build()
        if args.check_stability:
            return 0 if check_stability(spec, args.seed, seconds) else 1
        if args.spread:
            return 0 if check_spread(spec, args.seed, args.spread, seconds) else 1
        if args.full_set:
            for workload, metrics in full_set(spec, args.seed, seconds).items():
                for name, value in metrics.items():
                    print(f"{workload:16s} {name:12s} {value:.6g}")
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        measured = measure_workload(args.workload, args.seed, seconds,
                                    bool(args.trace))
        result = report(args.workload, args.seed, bool(args.trace), spec, *measured)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
