"""Command-line front end.

Every command prints a single JSON run report to stdout:

    {"command": ..., "inputs": ..., "result": ..., "elapsed_ms": ...}

Each ``_cmd_*`` function returns ``(inputs, result, exit_code)`` and prints
nothing; ``main`` times the command and emits its report, so a command that
raises prints no report.

Exit codes: 0 on success (and when a queried property holds), 1 when a
queried property fails or nothing is found, 2 on invalid input, 3 on an
internal error (one "error: internal: <Type>: <message>" line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import classify as classify_mod
from .autiso import automorphism_group, canonical_graph6, check_group_action
from .graphs import (
    Graph,
    Matching,
    complete,
    complete_bipartite,
    composition,
    cycle,
    empty_graph,
    folded_hypercube,
    graph6_decode,
    graph6_encode,
    hypercube,
    join,
    matching_join,
    odd_graph,
    paley_incidence,
    paley_incidence_cliques,
    path_graph,
    petersen,
    subdivide_all,
    subdivide_matching_twice,
    subdivide_non_matching,
)
from .matchings import (
    find_matching,
    is_2arc_transitive,
    is_arc_transitive,
    matching_report,
    normalize_mode,
)
from .perms import Perm, PermGroup, orbits
from .polygonal import near_polygonal_certificate, quotient_by_partition
from .voltage import (
    DEFAULT_COVER_CAP,
    derived_cover,
    lift_group,
    lift_matching_in_tree,
    spanning_tree,
    standard_assignment,
)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError("empty graph file: %s" % path)
    return graph6_decode(text.splitlines()[0].strip())


def _read_group(spec: str, g: Graph) -> PermGroup:
    if spec == "auto":
        return automorphism_group(g)
    gens = []
    with open(spec, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                gens.append(Perm.parse(line, g.n))
    group = PermGroup(gens, degree=g.n)
    check_group_action(g, group)
    return group


def _graph_spec(token: str) -> Graph:
    """K5, Kbar4, C7, P3, a (a,b) bipartite pair like K3,3 -- or a graph6
    file path."""
    if token.startswith("Kbar"):
        family, params = "empty", [token[4:]]
    elif "," in token and token.startswith("K"):
        family, params = "complete-bipartite", token[1:].split(",")
    elif token[:1] in _SHORTHAND and token[1:].isdigit():
        family, params = _SHORTHAND[token[0]], [token[1:]]
    else:
        return _read_graph(token)
    builder, values = _family_values(family, params)
    return builder(*values)


# gen families: name -> (builder, one parser per parameter)
_FAMILIES = {
    "complete": (complete, (int,)),
    "empty": (empty_graph, (int,)),
    "complete-bipartite": (complete_bipartite, (int, int)),
    "cycle": (cycle, (int,)),
    "path": (path_graph, (int,)),
    "petersen": (petersen, ()),
    "odd": (odd_graph, (int,)),
    "hypercube": (hypercube, (int,)),
    "folded-hypercube": (folded_hypercube, (int,)),
    "paley": (paley_incidence, (int,)),
    "paley-cliques": (paley_incidence_cliques, (int,)),
    "join": (join, (_graph_spec, _graph_spec)),
    "matching-join": (matching_join, (_graph_spec, _graph_spec)),
    "composition": (composition, (_graph_spec, int)),
    "subdivide-all": (subdivide_all, (_graph_spec,)),
    "subdivide-non-matching": (subdivide_non_matching, (_graph_spec,)),
    "subdivide-matching-twice": (subdivide_matching_twice, (_graph_spec,)),
}
# one-letter graph-spec prefixes -> gen family
_SHORTHAND = {"K": "complete", "C": "cycle", "P": "path"}


def _family_values(name: str, params: list[str]) -> tuple:
    """The builder of a gen family and its parsed parameters."""
    if name not in _FAMILIES:
        raise ValueError("unknown family: %s" % name)
    builder, parsers = _FAMILIES[name]
    if len(params) != len(parsers):
        raise ValueError("%s expects %d parameter(s)" % (name, len(parsers)))
    return builder, [parse(x) for parse, x in zip(parsers, params)]


def _emit(command: str, inputs: dict, result: dict, started: float) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _graph_result(g: Graph) -> dict:
    return {
        "graph6": graph6_encode(g),
        "vertices": g.n,
        "edges": g.num_edges,
        "degree_min": min((g.degree(v) for v in range(g.n)), default=0),
        "degree_max": max((g.degree(v) for v in range(g.n)), default=0),
    }


def _cmd_gen(args: argparse.Namespace) -> tuple[dict, dict, int]:
    name = args.family
    params = list(args.params)
    builder, values = _family_values(name, params)
    if name == "matching-join":
        values.append([int(x) for x in args.phi.split(",")] if args.phi
                      else list(range(values[0].n)))
    elif name in ("subdivide-non-matching", "subdivide-matching-twice"):
        if not args.edges:
            raise ValueError("%s requires --edges" % name)
        values.append(Matching.parse(args.edges))
    built = builder(*values)

    extra: dict = {}
    if name == "odd":
        g, gens = built
        extra["symbol_generators"] = [p.cycle_string() for p in gens]
    elif name == "subdivide-all":
        g, vertex_map = built
        extra["edge_vertices"] = {"%d-%d" % e: w for e, w in sorted(vertex_map.items())}
    else:
        g = built

    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(graph6_encode(g) + "\n")
    result = _graph_result(g)
    result.update(extra)
    return {"family": name, "params": params}, result, 0


def _cmd_aut(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    group = automorphism_group(g)
    result = {
        "order": group.order(),
        "generators": [p.cycle_string() for p in group.generators],
        "orbits": [sorted(t) for t in orbits(group.generators, range(g.n))],
        "canonical_graph6": canonical_graph6(g),
    }
    return {"graph": args.graph}, result, 0


def _cmd_matching_analyze(args: argparse.Namespace) -> tuple[dict, dict, int]:
    mode = normalize_mode(args.check) if args.check else None
    g = _read_graph(args.graph)
    group = _read_group(args.group, g)
    matching = Matching.parse(args.edges)
    report = matching_report(g, matching, group)
    inputs = {"graph": args.graph, "edges": args.edges, "group": args.group, "check": mode}
    passed = mode is None or report.passes(mode)
    return inputs, report.to_json_dict(), 0 if passed else 1


def _cmd_matching_find(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    group = _read_group(args.group, g)
    mode = normalize_mode(args.mode)
    witness = find_matching(g, group, args.m, mode)
    result = {"found": witness is not None}
    if witness is not None:
        result["matching"] = str(witness)
        result["report"] = matching_report(g, witness, group).to_json_dict()
    inputs = {"graph": args.graph, "m": args.m, "mode": mode, "group": args.group}
    return inputs, result, 0 if witness is not None else 1


def _cmd_cover(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    group = _read_group(args.group, g)
    required = Matching.parse(args.tree_contains or "")
    tree = spanning_tree(g, required)
    xi = standard_assignment(g, args.p, tree)
    cover = derived_cover(xi, max_vertices=args.max_vertices)
    lifted = lift_group(cover, group)
    result = {
        "base_vertices": g.n,
        "cover_vertices": cover.graph.n,
        "p": cover.p,
        "k": cover.k,
        "tree": sorted(list(e) for e in tree),
        "lifted_group_order": lifted.order(),
        "assignment": xi.to_json_dict(),
    }
    if args.tree_contains:
        lifted_matching = lift_matching_in_tree(cover, required)
        report = matching_report(cover.graph, lifted_matching, lifted)
        result["lifted_matching"] = str(lifted_matching)
        result["lifted_matching_report"] = report.to_json_dict()
    if args.out:
        with open(args.out + ".g6", "w", encoding="ascii") as fh:
            fh.write(graph6_encode(cover.graph) + "\n")
        with open(args.out + ".fibers.json", "w", encoding="ascii") as fh:
            json.dump(cover.fiber_partition(), fh)
            fh.write("\n")
    inputs = {"graph": args.graph, "p": args.p, "group": args.group,
              "tree_contains": args.tree_contains}
    return inputs, result, 0


def _cmd_near_polygonal(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    group = _read_group(args.group, g)
    system = near_polygonal_certificate(g, group)
    result = {"found": system is not None}
    if system is not None:
        result["cycle_length"] = system.length
        result["cycle_count"] = len(system.cycles)
        result["cycles"] = [list(c) for c in system.cycles]
    return {"graph": args.graph, "group": args.group}, result, 0 if system is not None else 1


def _cmd_quotient(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    with open(args.partition, "r", encoding="ascii") as fh:
        try:
            blocks = json.load(fh)
        except RecursionError:
            raise ValueError("partition file nests too deeply") from None
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("partition file must hold a JSON list of vertex lists")
    # bool is a subclass of int, but true/false are not vertices
    bad = [v for b in blocks for v in b if type(v) is not int or not 0 <= v < g.n]
    if bad:
        raise ValueError("partition entry %s is not a vertex 0..%d"
                         % (json.dumps(bad[0]), g.n - 1))
    group = _read_group(args.group, g) if args.group else None
    res = quotient_by_partition(g, [tuple(b) for b in blocks], group)
    inputs = {"graph": args.graph, "partition": args.partition, "group": args.group}
    return inputs, res.to_json_dict(), 0


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, dict, int]:
    mode = normalize_mode(args.mode)
    report = classify_mod.classification_report(args.m, mode)
    return {"m": args.m, "mode": mode}, report, 0 if report["match"] else 1


def _cmd_arc_transitivity(args: argparse.Namespace) -> tuple[dict, dict, int]:
    g = _read_graph(args.graph)
    group = _read_group(args.group, g)
    result = {
        "arc_transitive": is_arc_transitive(g, group),
        "two_arc_transitive": is_2arc_transitive(g, group),
    }
    return {"graph": args.graph, "group": args.group}, result, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permatch",
        description="Graphs whose automorphism groups act richly on a perfect matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the graph and group inputs of every command that analyzes a pair
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("graph")
    pair.add_argument("--group", default="auto", help="'auto' or a generator file")

    p = sub.add_parser("gen", help="write a named graph as graph6")
    p.add_argument("family", help="one of: " + ", ".join(_FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("--phi", help="comma-separated bijection for matching-join")
    p.add_argument("--edges", help="matching edges u-v,... for subdivision families")
    p.add_argument("--out", help="write graph6 to this file")
    p.set_defaults(func=_cmd_gen, report="gen")

    p = sub.add_parser("aut", help="automorphism group of a graph6 file")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_aut, report="aut")

    p = sub.add_parser("matching", help="analyze or search matchings")
    msub = p.add_subparsers(dest="subcommand", required=True)
    pa = msub.add_parser("analyze", parents=[pair], help="report on one matching")
    pa.add_argument("--edges", required=True, help="matching edges u-v,...")
    pa.add_argument("--check", help="exit 1 unless the matching passes this mode")
    pa.set_defaults(func=_cmd_matching_analyze, report="matching-analyze")
    pf = msub.add_parser("find", parents=[pair], help="search for a qualifying matching")
    pf.add_argument("-m", type=int, required=True, help="matching size")
    pf.add_argument("--mode", default="permutable")
    pf.set_defaults(func=_cmd_matching_find, report="matching-find")

    p = sub.add_parser("cover", parents=[pair],
                       help="derived cover from a standard voltage assignment")
    p.add_argument("-p", type=int, required=True, help="prime modulus")
    p.add_argument("--tree-contains", help="edges u-v,... the spanning tree must use")
    p.add_argument("--max-vertices", type=int, default=DEFAULT_COVER_CAP)
    p.add_argument("--out", help="prefix for .g6 and .fibers.json outputs")
    p.set_defaults(func=_cmd_cover, report="cover")

    p = sub.add_parser("near-polygonal", parents=[pair],
                       help="search a cycle system covering 2-paths once")
    p.set_defaults(func=_cmd_near_polygonal, report="near-polygonal")

    p = sub.add_parser("quotient", help="quotient by a vertex partition")
    p.add_argument("graph")
    p.add_argument("--partition", required=True, help="JSON file: list of vertex lists")
    p.add_argument("--group", help="'auto' or a generator file (optional)")
    p.set_defaults(func=_cmd_quotient, report="quotient")

    p = sub.add_parser("arcs", parents=[pair], help="arc- and 2-arc-transitivity of a pair")
    p.set_defaults(func=_cmd_arc_transitivity, report="arcs")

    p = sub.add_parser("classify", help="classify perfect matchings by group against the "
                       "catalog (m <= %d permutable, m <= %d two-transitive)"
                       % (classify_mod.CATALOG_MAX_M, classify_mod._TWO_TRANSITIVE_MAX_M))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", default="permutable")
    p.set_defaults(func=_cmd_classify, report="classify")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs, result, code = args.func(args)
        _emit(args.report, inputs, result, started)
        return code
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("error: internal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
