"""Question lists and answer oracles of the permatch benchmark workloads.

A workload is a fixed list of questions asked one at a time. ``build``
makes the list from the workload seed and the pass index: the graphs of
``catalog`` and the O_4 graphs of ``large`` get random relabelings drawn
from both, so passes of one run cover different labelings and no graph
cached by an earlier question is reused by accident. Answers do not
depend on labeling, so every oracle stays exact.

Oracles run after the timed pass. Where a check is cheap it is made with
code of its own here (automorphisms, matchings, induced-action closures)
rather than with permatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import permatch as pm
import permatch.cli  # noqa: F401  (pm.cli, for the sweep)

PERMUTABLE = "permutable"
TWO_TRANSITIVE = "two-transitive"
MODES = (PERMUTABLE, TWO_TRANSITIVE)


@dataclass(frozen=True)
class Question:
    qid: str
    ask: Callable[[], object]
    # None when the answer is right, otherwise what is wrong with it
    check: Callable[[object], str | None]
    # text of an answer, compared between traced and untraced passes
    show: Callable[[object], str] = str


# -- independent checks ------------------------------------------------------


def is_automorphism(g, images) -> bool:
    """Every edge of g maps onto an edge, checked pair by pair."""
    return sorted(images) == list(range(g.n)) and all(
        g.has_edge(images[u], images[v]) for u, v in g.edges())


def matching_problem(g, matching, m: int, perfect: bool) -> str | None:
    """Why the pairs are not an m-matching of g (perfect if asked)."""
    edges = [tuple(e) for e in matching]
    used = [x for e in edges for x in e]
    if len(edges) != m:
        return "witness has %d edges, not %d" % (len(edges), m)
    if len(set(used)) != len(used) or not all(g.has_edge(u, v) for u, v in edges):
        return "witness is not a matching of the graph"
    if perfect and len(used) != g.n:
        return "witness is not perfect"
    return None


def edge_action(gens, matching) -> list[tuple[int, ...]] | None:
    """The distinct permutations of the matching's edge indices that the
    generators induce, or None when one of them does not map the matching
    onto itself."""
    index = {frozenset(e): i for i, e in enumerate(matching)}
    out = set()
    for p in gens:
        im = p.images
        row = tuple(index.get(frozenset((im[a], im[b])), -1) for a, b in matching)
        if -1 in row:
            return None
        out.add(row)
    return sorted(out)


def closure_order(gens: list[tuple[int, ...]], m: int) -> int:
    """Order of the group the edge permutations generate, by closure."""
    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(map(g.__getitem__, cur))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def two_transitive(gens: list[tuple[int, ...]], m: int) -> bool:
    """One orbit on ordered pairs of distinct edge indices."""
    if m < 2:
        return True
    seen = {(0, 1)}
    frontier = [(0, 1)]
    while frontier:
        a, b = frontier.pop()
        for g in gens:
            nxt = (g[a], g[b])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == m * (m - 1)


# -- catalog -----------------------------------------------------------------


def relabel(g, rng: random.Random):
    images = list(range(g.n))
    rng.shuffle(images)
    return g.apply_perm(pm.Perm(images))


def _check_witness(g, m: int, mode: str, perfect: bool, w) -> str | None:
    if w is None:
        return "no matching found"
    problem = matching_problem(g, w, m, perfect)
    if problem:
        return problem
    aut = pm.automorphism_group(g)
    rep = pm.matching_report(g, w, aut)
    if perfect and not rep.is_perfect:
        return "report says the witness is not perfect"
    if not (rep.permutable if mode == PERMUTABLE else rep.two_transitive):
        return "report says the witness fails %s" % mode
    stab = pm.matching_stabilizer(g, aut, w)
    if not all(is_automorphism(g, p.images) for p in stab.generators):
        return "a stabilizer generator is not an automorphism"
    action = edge_action(stab.generators, list(w))
    if action is None:
        return "a stabilizer generator does not fix the matching"
    if mode == PERMUTABLE and closure_order(action, m) != math.factorial(m):
        return "stabilizer does not induce the symmetric group"
    if mode == TWO_TRANSITIVE and not two_transitive(action, m):
        return "stabilizer does not act 2-transitively"
    return None


def find_question(qid: str, g, m: int, mode: str, exists: bool,
                  perfect: bool = False) -> Question:
    def check(w) -> str | None:
        if not exists:
            return None if w is None else "found %s where none exists" % w
        return _check_witness(g, m, mode, perfect, w)

    return Question(qid, lambda: pm.find_matching(g, None, m, mode), check)


def catalog(rng: random.Random) -> list[Question]:
    """Every catalog entry for m = 2..7 in both modes, the known negatives,
    and the C_3k positives of the degree-bound exception."""
    qs = []
    for m in range(2, 8):
        for mode in MODES:
            for e in pm.matching_catalog(m, mode).entries:
                qs.append(find_question("%s/m%d/%s" % (e.name, m, mode),
                                        relabel(e.graph, rng), m, mode, True, True))
    for name, g, m in (("C8", pm.cycle(8), 3), ("K4", pm.complete(4), 3),
                       ("K5", pm.complete(5), 4)):
        qs.append(find_question("%s/m%d/none" % (name, m), relabel(g, rng),
                                m, PERMUTABLE, False))
    for k in range(2, 6):
        qs.append(find_question("C%d/m3/%s" % (3 * k, PERMUTABLE),
                                relabel(pm.cycle(3 * k), rng), 3, PERMUTABLE, True))
    return qs


# -- sweep -------------------------------------------------------------------


def classify_question(m: int, mode: str) -> Question:
    classes = {2: 4, 3: 7}[m]

    def ask():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pm.cli.main(["classify", "--m", str(m), "--mode", mode])
        return code, out.getvalue()

    def check(answer) -> str | None:
        code, text = answer
        result = json.loads(text)["result"]
        if code != 0 or result["match"] is not True:
            return "exit %d, match %r" % (code, result["match"])
        if len(result["observed"]) != classes:
            return "%d classes observed, not %d" % (len(result["observed"]), classes)
        return None

    def show(answer) -> str:
        code, text = answer
        result = json.loads(text)["result"]
        return "%d %s" % (code, json.dumps(result["observed"]))

    return Question("classify/m%d/%s" % (m, mode), ask, check, show)


def sweep(rng: random.Random) -> list[Question]:
    """``permatch classify`` for m = 2, 3 in both modes; the seed has no use."""
    return [classify_question(m, mode) for m in (2, 3) for mode in MODES]


# -- large -------------------------------------------------------------------


def group_question(qid: str, g, order: int) -> Question:
    def check(group) -> str | None:
        if group.order() != order:
            return "order %d, not %d" % (group.order(), order)
        if not all(is_automorphism(g, p.images) for p in group.generators):
            return "a generator is not an automorphism"
        return None

    return Question(qid, lambda: pm.automorphism_group(g), check,
                    lambda group: str(group.order()))


def lift_question() -> Question:
    g = pm.petersen()

    def ask():
        cover = pm.derived_cover(pm.standard_assignment(g, 2, pm.spanning_tree(g)))
        return cover, pm.lift_group(cover, pm.automorphism_group(g))

    def check(answer) -> str | None:
        cover, group = answer
        if cover.graph.n != 640 or group.order() != 7680:
            return "cover on %d vertices, lifted order %d" % (cover.graph.n, group.order())
        if not all(is_automorphism(cover.graph, p.images) for p in group.generators):
            return "a lifted generator is not an automorphism"
        return None

    return Question("petersen-cover/lift", ask, check,
                    lambda answer: str(answer[1].order()))


def _report_check(m: int, order: int | None):
    def check(rep) -> str | None:
        if rep.m != m or not rep.permutable or rep.induced_order != math.factorial(m):
            return "m %d, permutable %r, induced order %d" % (
                rep.m, rep.permutable, rep.induced_order)
        if order is not None and rep.group_order != order:
            return "group order %d, not %d" % (rep.group_order, order)
        return None

    return check


def _show_report(rep) -> str:
    return json.dumps(rep.to_json_dict(), sort_keys=True)


def spoke_question(m: int) -> Question:
    g, gens = pm.odd_graph(m)
    tail = list(range(m, 2 * m - 2))
    edges = []
    for i in range(m):
        s_i = [x for x in range(m) if x != i]
        edges.append((pm.odd_graph_vertex(m, s_i), pm.odd_graph_vertex(m, [i] + tail)))
    matching = pm.Matching(edges)
    return Question(
        "O%d/spokes" % m,
        lambda: pm.matching_report(g, matching, pm.PermGroup(gens, degree=g.n)),
        _report_check(m, math.factorial(2 * m - 1)), _show_report)


def star_question(name: str, g) -> Question:
    m = g.degree(0)

    def ask():
        system = pm.near_polygonal_certificate(g)
        cover = pm.derived_cover(pm.standard_assignment(g, 2, pm.spanning_tree(g)))
        matching = pm.cycle_system_matching(cover, 0, system)
        lifted = pm.lift_group(cover, pm.automorphism_group(g))
        return pm.matching_report(cover.graph, matching, lifted)

    return Question("%s-cover/star" % name, ask, _report_check(m, None), _show_report)


def large(rng: random.Random) -> list[Question]:
    """Large symmetric structures, each checked against a closed form."""
    qs = [group_question("K20/aut", pm.complete(20), math.factorial(20))]
    # The search cost of a relabeled Q_6 ranges from 0.2 s to 1.8 s with the
    # labeling, so seeded relabelings would make the figure depend on the
    # seed more than any bound allows (NOTES.md). Its three labelings are
    # random but the same for every seed.
    fixed = random.Random("large/Q6")
    for i in range(3):
        qs.append(group_question("Q6/aut/%d" % i, relabel(pm.hypercube(6), fixed),
                                 2 ** 6 * math.factorial(6)))
    for _ in range(3):
        qs.append(group_question("O4/aut", relabel(pm.odd_graph(4)[0], rng),
                                 math.factorial(7)))
    qs.append(group_question("O5/aut", pm.odd_graph(5)[0], math.factorial(9)))
    qs.append(lift_question())
    qs.extend(spoke_question(m) for m in (3, 4, 5))
    qs.extend(star_question(name, g) for name, g in
              (("K4", pm.complete(4)), ("K5", pm.complete(5)), ("Q3", pm.hypercube(3))))
    return qs


WORKLOADS: dict[str, Callable[[random.Random], list[Question]]] = {
    "catalog": catalog,
    "sweep": sweep,
    "large": large,
}


def build(workload: str, seed: int, pass_index: int) -> list[Question]:
    """The questions of one pass; the same arguments give the same inputs."""
    return WORKLOADS[workload](random.Random("%s/%d/%d" % (workload, seed, pass_index)))
