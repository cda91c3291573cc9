#!/usr/bin/env python3
"""PReVer end-to-end benchmark runner (see perfbench/README.md).

  python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. Prints `workload metric value unit` lines, then
      one JSON object as the last stdout line with the keys correct,
      attempted, failed and metrics: every end_to_end metric of
      BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
      Exits 1 when a correctness check fails.

  python3 perfbench/run.py [--seed N] [--runs K] [--seconds S] [--out FILE]
      Every workload untraced (end-to-end metrics), then once more traced
      (per-layer metrics), K times over. Prints the median of every metric as
      `workload metric value unit` and writes all values to a results JSON.

  python3 perfbench/run.py compare A.json B.json
      For each workload and end-to-end metric: both sides' median and
      quartiles, "regressed" when B is worse than A by more than the metric's
      bound, "unresolved" when the run-to-run spread is wider than the bound.
      A side with a failed op or check is invalid. Outcome counts (accepted,
      rejected, ledger entries, ...) must match exactly; per-layer counters
      are reported as better or worse by their direction.

  python3 perfbench/run.py smoke --build-dir DIR
      Every workload at 2% of its op count, twice with one seed: every
      correctness check passes, every declared metric is printed, and every
      outcome and per-layer count repeats exactly (the PreverBenchSmoke ctest).

The runner builds prever_bench from source into .bench_build at the repository
root (CMake, Release) and refuses to report numbers from a build that is not
Release or has sanitizers, mutation sites or -march=native compiled in.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC_PATH = REPO / "BENCHMARK.json"
DEFAULT_BUILD = REPO / ".bench_build"
DEFAULT_SEED = 42

# PREVER_TRACE_SAMPLE per workload: keep 1 in N transactions so that one
# traced round fits the flight recorder (2^16 events per thread) with room to
# spare; the export then drops nothing and trace_analyze --strict finds no
# orphans. A sampled update records about 10 events on ycsb-upsert, 90 on
# ycsb-insert-pbft (every PBFT message hop), 6 on token-budget and 8 on
# encrypted-rc1.
TRACE_SAMPLE = {
    "ycsb-upsert": 4,
    "ycsb-insert-pbft": 32,
    "token-budget": 1,
    "encrypted-rc1": 1,
}

# CMakeCache.txt entries a build must have before its numbers are reported.
RELEASE_CACHE = {
    "CMAKE_BUILD_TYPE": "Release",
    "PREVER_SANITIZE": "",
    "PREVER_MUTATIONS": "OFF",
    "PREVER_NATIVE": "OFF",
}

BENCH_TIMEOUT_S = 150
SMOKE_SCALE = 0.02

# trace_analyze attribution buckets -> per-layer metric names.
TRACE_BUCKETS = {
    "verify": "trace.share.verify",
    "consensus": "trace.share.consensus",
    "durability": "trace.share.durability",
    "queue-wait": "trace.share.queue_wait",
}


class BenchError(Exception):
    """A run that cannot produce a result (no checkout, build failure...)."""


def load_spec():
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


# ------------------------------------------------------------------ build


def build(build_dir):
    """Configures (once) and builds prever_bench and trace_analyze."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"{REPO} is not a PReVer checkout (no src/CMakeLists.txt)")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    log = build_dir / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  env=env, cwd=REPO, check=False)
            if done.returncode != 0:
                out.flush()
                tail = log.read_text()[-4000:]
                raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")


def release_guard(build_dir):
    """Refuses builds whose numbers would not compare; returns the flags."""
    cache_file = build_dir / "CMakeCache.txt"
    if not cache_file.is_file():
        raise BenchError(f"no {cache_file}")
    cache = {}
    for line in cache_file.read_text().splitlines():
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    bad = [f"{key}={cache.get(key, '<unset>')!r} (need {want!r})"
           for key, want in RELEASE_CACHE.items() if cache.get(key) != want]
    if bad:
        raise BenchError("refusing to report numbers from this build: " +
                         ", ".join(bad))
    return {key: cache[key] for key in RELEASE_CACHE}


# ------------------------------------------------------------------- runs


def run_bench(build_dir, workload, seed, seconds, trace, scale=None):
    """One prever_bench process; returns its result with trace metrics added."""
    cmd = [str(build_dir / "prever_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    env = dict(os.environ)
    trace_file = None
    if trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{seed}.json"
        trace_file.unlink(missing_ok=True)
        cmd.append(f"--trace={trace_file}")
        env["PREVER_TRACE_SAMPLE"] = str(TRACE_SAMPLE.get(workload, 1))
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=REPO, timeout=BENCH_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: prever_bench timed out after {e.timeout}s")
    except OSError as e:
        raise BenchError(f"cannot run {cmd[0]}: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: prever_bench exited {done.returncode}")
    for line in lines[:-1]:
        if not line.startswith("PREVER_TRACE_FILE"):
            print(line)
    result = json.loads(lines[-1])
    if trace:
        add_trace_metrics(build_dir, trace_file, result)
    return result


def add_trace_metrics(build_dir, trace_file, result):
    """trace.* metrics from tools/trace_analyze --strict on the export."""
    failures = []
    # The drop counters sit in the export's "prever" metadata object; read
    # them from the text rather than parsing every event.
    drops = re.findall(r'"(?:unmatched_begins|orphan_ends)_dropped":(\d+)',
                       trace_file.read_text())
    if len(drops) != 2:
        failures.append("trace export has no drop counters")
    elif sum(map(int, drops)):
        failures.append(f"trace export dropped {sum(map(int, drops))} events")
    analyzer = build_dir / "prever" / "tools" / "trace_analyze"
    done = subprocess.run([str(analyzer), "--strict", str(trace_file)],
                          capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        failures.append("trace_analyze --strict failed: " + done.stderr.strip())
    orphans = re.search(r"orphan_parents=(\d+)", done.stdout)
    if orphans is None:
        failures.append("trace_analyze printed no span summary")
    totals = {bucket: float(ms) for bucket, ms in re.findall(
        r"^\s+(verify|consensus|durability|queue-wait)\s+([0-9.]+) ms",
        done.stdout, re.M)}
    total = sum(totals.values())
    metrics = result["metrics"]
    for bucket, name in TRACE_BUCKETS.items():
        metrics[name] = totals.get(bucket, 0.0) / total if total else 0.0
    metrics["trace.orphan_spans"] = int(orphans.group(1)) if orphans else 0
    for f in failures:
        sys.stderr.write(f"perfbench: FAILED: {f}\n")
    if failures:
        result["correct"] = False
        result["failed"] += len(failures)


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def pick_metrics(spec, trace, result, workload):
    """The declared metrics of one run, in BENCHMARK.json order."""
    out = {}
    for m in declared(spec, trace):
        if m["name"] not in result["metrics"]:
            raise BenchError(f"{workload}: prever_bench did not report {m['name']}")
        out[m["name"]] = result["metrics"][m["name"]]
    return out


def cmd_one(spec, args):
    """The benchmark contract: one workload, one seed, one JSON line."""
    if args.workload not in workload_names(spec):
        raise BenchError(f"unknown workload {args.workload!r}")
    build_dir = Path(args.build_dir)
    build(build_dir)
    release_guard(build_dir)
    seconds = args.seconds or spec["run_seconds"]
    result = run_bench(build_dir, args.workload, args.seed, seconds,
                       args.trace)
    units = {m["name"]: m["unit"] for m in declared(spec, args.trace)}
    values = pick_metrics(spec, args.trace, result, args.workload)
    for name, value in values.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if result["correct"] else 1


def cmd_all(spec, args):
    """Every workload untraced, then traced; `--runs` times; results JSON."""
    build_dir = Path(args.build_dir)
    build(build_dir)
    flags = release_guard(build_dir)
    seconds = args.seconds or spec["run_seconds"]
    names = workload_names(spec)
    runs = {w: {"correct": [], "attempted": [], "failed": [], "outcomes": [],
                "metrics": {}}
            for w in names}
    for _ in range(args.runs):
        for trace in (0, 1):
            for w in names:
                # Per-layer metrics carry no bound: half the time suffices.
                result = run_bench(build_dir, w, args.seed,
                                   seconds / 2 if trace else seconds, trace)
                entry = runs[w]
                entry["correct"].append(result["correct"])
                entry["attempted"].append(result["attempted"])
                entry["failed"].append(result["failed"])
                entry["outcomes"].append(result["outcomes"])
                for name, value in pick_metrics(spec, trace, result, w).items():
                    entry["metrics"].setdefault(name, []).append(value)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for w in names:
        for name, values in runs[w]["metrics"].items():
            print(f"{w} {name} {statistics.median(values)!r} {units[name]}")
    out = Path(args.out) if args.out else build_dir / "results.json"
    out.write_text(json.dumps({
        "schema": "prever.perfbench.results.v1",
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "build": flags,
        "units": units,
        "workloads": runs,
    }, indent=1) + "\n")
    print(f"results: {out}")
    ok = all(all(runs[w]["correct"]) for w in names)
    if not ok:
        sys.stderr.write("perfbench: a correctness check failed\n")
    return 0 if ok else 1


# ---------------------------------------------------------------- compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def distinct_outcomes(entries):
    """Outcome key -> the set of values the given runs reported for it."""
    seen = {}
    for outcomes in entries:
        for key, value in outcomes.items():
            seen.setdefault(key, set()).add(value)
    return seen


def cmd_compare(spec, args):
    a_doc = json.loads(Path(args.a).read_text())
    b_doc = json.loads(Path(args.b).read_text())
    if a_doc["seed"] != b_doc["seed"]:
        raise BenchError(f"A ran seed {a_doc['seed']} and B seed "
                         f"{b_doc['seed']}: their outcomes cannot be compared")
    a, b = a_doc["workloads"], b_doc["workloads"]
    bad = False
    for side, runs in (("A", a), ("B", b)):
        for w, entry in runs.items():
            if not all(entry["correct"]) or any(entry["failed"]):
                print(f"{w:<17} {side} is invalid: {sum(entry['failed'])} "
                      f"failed ops or checks over {len(entry['correct'])} runs")
                bad = True
    print(f"{'workload':<17} {'metric':<17} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'worse':>8}  verdict")
    for w in workload_names(spec):
        if w not in a or w not in b:
            continue
        for m in spec["end_to_end"]:
            va, vb = a[w]["metrics"][m["name"]], b[w]["metrics"][m["name"]]
            qa, qb = quartiles(va), quartiles(vb)
            lower = m["better"] == "lower"
            worse = relative(qb[1] - qa[1] if lower else qa[1] - qb[1], qa[1])
            spread = max(relative(qa[2] - qa[0], qa[1]),
                         relative(qb[2] - qb[0], qb[1]))
            b_always_better = all((y < x) if lower else (y > x)
                                  for x in va for y in vb)
            if spread > m["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print(f"{w:<17} {m['name']:<17} "
                  f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                  f"{worse:>+8.1%}  {verdict}")
        # A fixed stream must end in the same outcome on every run.
        seen = distinct_outcomes(a[w]["outcomes"] + b[w]["outcomes"])
        for key, values in sorted(seen.items()):
            if len(values) > 1:
                print(f"{w:<17} outcome {key} differs: {sorted(values)}")
                bad = True
        # Layer counters are meant to move; report which way.
        for m in spec["per_layer"]:
            if m["unit"] != "count":
                continue
            ca = statistics.median(a[w]["metrics"][m["name"]])
            cb = statistics.median(b[w]["metrics"][m["name"]])
            if ca != cb:
                better = (cb < ca) == (m["better"] == "lower")
                print(f"{w:<17} {m['name']}: {ca:g} -> {cb:g} "
                      f"({'better' if better else 'worse'})")
    return 1 if bad else 0


# ------------------------------------------------------------------ smoke


def cmd_smoke(spec, args):
    build_dir = Path(args.build_dir)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    failures = []
    for w in workload_names(spec):
        # --seconds 0: one untraced and one traced round.
        runs = [run_bench(build_dir, w, DEFAULT_SEED, 0, True,
                          scale=SMOKE_SCALE) for _ in range(2)]
        for r in runs:
            if not r["correct"]:
                failures.append(f"{w}: a correctness check failed")
            missing = [n for n in names if n not in r["metrics"]]
            if missing:
                failures.append(f"{w}: metrics not printed: {missing}")
        for key in ("attempted", "failed", "outcomes"):
            if runs[0][key] != runs[1][key]:
                failures.append(f"{w}: {key} differs between runs")
        for n in counts:
            if runs[0]["metrics"].get(n) != runs[1]["metrics"].get(n):
                failures.append(f"{w}: count {n} differs between runs: "
                                f"{runs[0]['metrics'].get(n)} vs "
                                f"{runs[1]['metrics'].get(n)}")
    for f in failures:
        print(f"smoke FAILED: {f}")
    print("smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main(argv):
    spec = load_spec()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(spec, p.parse_args(argv[1:]))
    if argv[:1] == ["smoke"]:
        p = argparse.ArgumentParser(prog="run.py smoke")
        p.add_argument("--build-dir", default=str(DEFAULT_BUILD))
        return cmd_smoke(spec, p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", help="run one workload (the benchmark contract)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="all-workload mode: repetitions")
    p.add_argument("--out", help="all-workload mode: results JSON path")
    p.add_argument("--build-dir", default=str(DEFAULT_BUILD))
    args = p.parse_args(argv)
    return cmd_one(spec, args) if args.workload else cmd_all(spec, args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write(f"perfbench: error: {e}\n")
        sys.exit(2)
