"""Benchmark of permatch, measured from outside the package.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of questions (see workloads.py), asked by
one caller in a closed loop, one question at a time. Every pass runs in a
fresh interpreter (onepass.py), because permatch memoizes automorphism
searches and enumerate_connected within a process while a command-line
user pays the cold cost on every call.

With ``--trace 0`` passes run until ``--seconds`` is spent (at least
MIN_PASSES), each pass with its own relabelings drawn from the seed; the
run reports the wall time of a typical pass and the median set-up time (at
least MIN_SETUPS set-ups), both corrected for the machine's speed, and the
median peak resident set size. With
``--trace 1`` it runs pairs of an untraced and a traced pass on the same
inputs and reports the per-layer metrics of tracing.py plus the tracing
overhead. Every answer is checked; the last line of standard output is one
JSON object, and the exit code is 0 only if every answer was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"  # raw pass results and the spans of traced passes
# passes a run makes at least: catalog needs two for at least 10 latency
# samples beyond p90; the others take per-question medians over more
MIN_PASSES = {"catalog": 2, "sweep": 4, "large": 3}
MIN_SETUPS = 5
PASS_TIMEOUT_S = 120.0

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402  (imports no permatch code)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, pass_index: int, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run onepass.py once; set-up time runs from the spawn to its
    ``ready`` line, so it covers interpreter start and ``import permatch``."""
    cmd = [sys.executable, str(BENCH / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(OUT / ("spans-%s-seed%d.json" % (workload, seed)))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or first.strip() != "ready" or not rest.strip():
        raise BenchError("%s pass %d exited with code %d" % (workload, pass_index, code))
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_line(passes: list[dict]) -> str:
    """Per-question latency pooled over passes, when enough samples lie
    beyond p90 for it to mean anything."""
    samples = [t * 1000 for p in passes for t in p["latency_s"]]
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    beyond = sum(t > p90 for t in samples)
    if beyond < 10:
        return "# answer latency: %d samples, only %d beyond p90; not reported" % (
            len(samples), beyond)
    return "# answer_ms_p50 %.3f, answer_ms_p90 %.3f over %d samples (%d beyond p90)" % (
        p50, p90, len(samples), beyond)


def median_pass(passes: list[dict]) -> float:
    """Wall time of a typical pass at full machine speed.

    Each latency is scaled by the speed the probes measured around its
    question. Then each question gets the median of its scaled latencies over
    all its asks in the run (the three Q6 relabelings of a ``large`` pass
    share one question id, so they pool), and the medians are summed."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for qid, t, v in zip(p["questions"], p["latency_s"], p["speeds"]):
            samples.setdefault(qid, []).append(t * v)
    per_pass = passes[0]["questions"]
    return sum(per_pass.count(qid) * statistics.median(ts) for qid, ts in samples.items())


def wrong_lines(passes: list[dict]) -> list[str]:
    wrong = [(qid, why) for p in passes for qid, why in p["wrong"]]
    lines = ["# wrong_answers %d of %d questions" % (
        len(wrong), sum(len(p["questions"]) for p in passes))]
    return lines + ["# wrong answer: %s: %s" % item for item in wrong]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    start = perf_counter()
    passes: list[dict] = []
    while True:
        passes.append(spawn(workload, seed, len(passes)))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES[workload] and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, 0, setup_only=True))

    OUT.mkdir(exist_ok=True)
    with open(OUT / ("passes-%s-seed%d.json" % (workload, seed)), "w", encoding="ascii") as fh:
        json.dump(passes, fh)
    failed = sum(len(p["wrong"]) for p in passes)
    summary = {
        "correct": failed == 0,
        "attempted": sum(len(p["questions"]) for p in passes),
        "failed": failed,
        "metrics": {
            "wall_s": {"value": median_pass(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] * p["setup_speed"]
                                                   for p in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        },
    }
    lines = ["# %s seed %d: %d passes; raw wall_s %s; speed %s; raw setup_s %s" % (
        workload, seed, len(passes), " ".join("%.3f" % p["wall_s"] for p in passes),
        " ".join("%.3f" % p["speed"] for p in passes),
        " ".join("%.3f" % p["setup_s"] for p in setups)), latency_line(passes)]
    return summary, lines + wrong_lines(passes)


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    start = perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(spawn(workload, seed, 0))
        traced.append(spawn(workload, seed, 0, trace=True))
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(traced)) > seconds:
            break

    passes = plain + traced
    failed = sum(len(p["wrong"]) for p in passes)
    mismatched = sum(p["answers"] != plain[0]["answers"] for p in passes)
    units = tracing.metric_units()
    layers = dict(traced[0]["layers"])  # counts repeat exactly on equal inputs
    for name, unit in units.items():
        if unit == "s":
            layers[name] = statistics.median(p["layers"][name] for p in traced)
    layers["trace.overhead"] = (statistics.median(p["wall_s"] * p["speed"] for p in traced)
                                / statistics.median(p["wall_s"] * p["speed"] for p in plain))
    summary = {
        "correct": failed == 0 and mismatched == 0,
        "attempted": sum(len(p["questions"]) for p in passes),
        "failed": failed + mismatched,
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in units.items()},
    }
    lines = ["# %s seed %d: %d traced passes; raw wall_s %s; traced %s; overhead %.3f" % (
        workload, seed, len(traced), " ".join("%.3f" % p["wall_s"] for p in plain),
        " ".join("%.3f" % p["wall_s"] for p in traced), layers["trace.overhead"])]
    if mismatched:
        lines.append("# %d passes answered differently from the first" % mismatched)
    if traced[0]["untraced"]:
        lines.append("# not in the package, so not traced: %s" % " ".join(traced[0]["untraced"]))
    return summary, lines + wrong_lines(passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of permatch.")
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the relabelings of the input graphs (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permatch" / "__init__.py").is_file():
        print("error: no permatch sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    try:
        summary, lines = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
