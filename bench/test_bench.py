"""Tests of the benchmark itself, on a small slice of the catalog workload."""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import onepass  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_catalog():
    """The m = 2, 3 questions and the negatives of one catalog pass."""
    qs = workloads.catalog(random.Random("test"))
    return [q for q in qs if "/m2/" in q.qid or "/m3/" in q.qid]


def fresh_pass(questions, tracer=None):
    onepass.clear_caches()
    return onepass.run_pass(questions, tracer)


@pytest.fixture(scope="module")
def passes():
    questions = small_catalog()
    tracer = tracing.Tracer()
    return fresh_pass(questions), fresh_pass(questions, tracer), tracer


def snapshot():
    out = {}
    for module in tracing._permatch_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, attr, cattr)] = cvalue
    return out


def test_restore_puts_back_every_patched_name():
    import permatch.matchings as matchings
    import permatch.perms as perms

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # both names of subgroup_search and the operator are wrapped
        assert matchings.subgroup_search is not before[("permatch.matchings", "subgroup_search")]
        assert perms.subgroup_search is matchings.subgroup_search
        assert perms.Perm.__mul__ is not before[("permatch.perms", "Perm", "__mul__")]
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_passes_answer_alike(passes):
    plain, traced, _ = passes
    assert plain["wrong"] == [] and traced["wrong"] == []
    assert plain["answers"] == traced["answers"]
    assert len(plain["answers"]) == len(small_catalog())


def test_self_times_are_nonnegative_and_within_wall(passes):
    _, traced, tracer = passes
    own = tracer.self_times()
    assert own and min(own) >= 0
    assert sum(own) <= traced["wall_s"]
    layers = traced["layers"]
    assert set(layers) == set(tracing.metric_units()) - {"trace.overhead"}
    assert layers["matchings.find_matching.calls"] == len(small_catalog())
    assert layers["perms.Perm.mul.calls"] > 0


def test_counts_repeat_on_equal_inputs(passes):
    _, traced, _ = passes
    again = fresh_pass(small_catalog(), tracing.Tracer())["layers"]
    for name, unit in tracing.metric_units().items():
        if unit != "s" and name in again:
            assert again[name] == traced["layers"][name], name


def test_planted_wrong_answers_are_counted():
    questions = small_catalog()
    positive = next(q for q in questions if q.qid.startswith("K4/m2/"))
    negative = next(q for q in questions if q.qid.endswith("/none"))

    def boom():
        raise RuntimeError("planted")

    planted = [
        positive,
        workloads.Question("bad-witness", lambda: workloads.pm.Matching([(0, 1)]),
                           positive.check),
        workloads.Question("bad-negative", positive.ask, negative.check),
        workloads.Question("raises", boom, positive.check),
    ]
    result = fresh_pass(planted)
    assert [qid for qid, _ in result["wrong"]] == ["bad-witness", "bad-negative", "raises"]
