"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, so the memo caches of permatch
(the automorphism-search cache in autiso, enumerate_connected in classify)
start cold, as they do for every command-line call. The script builds the
pass's inputs, prints ``ready`` (the parent times set-up up to that line),
asks every question in a closed loop, checks the answers and prints one
JSON line with the results.

    python3 bench/onepass.py --workload catalog --seed 1 --pass-index 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def clear_caches() -> None:
    """Empty every memo cache of permatch, so that building the inputs
    (matching_catalog computes canonical forms) warms nothing the
    questions use."""
    for name, module in list(sys.modules.items()):
        if name == "permatch" or name.startswith("permatch."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# Time of one probe at full speed on the machine described in NOTES.md.
PROBE_NOMINAL_S = 0.0007
PROBE_SHARE = 0.05  # probe time run after each question, as a share of its latency


def probe() -> float:
    """Fixed interpreter work of the kinds permatch does (tuple maps, sets,
    dicts, big-int bit counts) without calling it; returns its time."""
    t = perf_counter()
    a = tuple(range(64))
    b = a[::-1]
    seen = set()
    counts: dict[int, int] = {}
    for i in range(150):
        a = tuple(map(b.__getitem__, a))
        seen.add(a)
        counts[i & 31] = counts.get(i & 31, 0) + (1 << (i % 60)).bit_count()
    return perf_counter() - t


def probe_for(seconds: float, times: list[float]) -> None:
    """Probe for about the given time, at least once."""
    spent = 0.0
    while True:
        times.append(probe())
        spent += times[-1]
        if spent >= seconds:
            return


def speed(times: list[float]) -> float:
    """Machine speed while the probes ran, relative to full speed."""
    return PROBE_NOMINAL_S * len(times) / sum(times)


def run_pass(questions: list[workloads.Question],
             tracer: tracing.Tracer | None = None, lead: list[float] | None = None) -> dict:
    """Ask every question, then check the answers; the timed region covers
    the questions only. A question that raises counts as a wrong answer.

    After each question, outside its latency, probes measure the machine's
    speed, so that run.py can correct for other tenants of a shared host.
    A question's speed is that of the probes just before and just after it
    (``lead`` holds probes run before the first question)."""
    answers: list[object] = []
    errors: list[str | None] = []
    latencies: list[float] = []
    probes: list[list[float]] = [list(lead or [])]
    if tracer is not None:
        tracer.install()
    try:
        started = perf_counter()
        for q in questions:
            if tracer is not None:
                tracer.question = q.qid
            t = perf_counter()
            try:
                answers.append(q.ask())
                errors.append(None)
            except Exception as exc:
                answers.append(None)
                errors.append("raised %s: %s" % (type(exc).__name__, exc))
            latencies.append(perf_counter() - t)
            probes.append([])
            probe_for(PROBE_SHARE * latencies[-1], probes[-1])
        wall_s = perf_counter() - started - sum(map(sum, probes[1:]))
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = []
    shown = []
    for q, answer, error in zip(questions, answers, errors):
        if error is None:
            try:
                error = q.check(answer)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is None:
            shown.append(q.show(answer))
        else:
            wrong.append([q.qid, error])
            shown.append("wrong")
    result = {
        "wall_s": wall_s,
        "speed": speed([t for ts in probes[1:] for t in ts]),
        "speeds": [speed(before + after) for before, after in zip(probes, probes[1:])],
        "peak_rss_mb": peak_rss_mb,
        "questions": [q.qid for q in questions],
        "latency_s": latencies,
        "answers": shown,
        "wrong": wrong,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_s_total"] = sum(tracer.self_times())
        result["untraced"] = tracer.missing
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--spans", help="file for the recorded spans (with --trace)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times set-up alone)")
    args = parser.parse_args(argv)

    questions = workloads.build(args.workload, args.seed, args.pass_index)
    clear_caches()
    print("ready", flush=True)
    probes: list[float] = []
    probe_for(20 * PROBE_NOMINAL_S, probes)
    if args.setup_only:
        print(json.dumps({"setup_speed": speed(probes)}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    result = run_pass(questions, tracer, probes)
    result["setup_speed"] = speed(probes)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
