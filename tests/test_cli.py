"""Command-line interface: run reports, exit codes, and file outputs.

Commands are driven in-process through main(argv); one subprocess smoke
test checks the module entry point.
"""

import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from permatch import (
    Graph,
    Matching,
    are_isomorphic,
    automorphism_group,
    canonical_graph6,
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
import permatch.cli
import permatch.voltage
from permatch.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def write_graph(tmp_path, g, name="g.g6"):
    path = tmp_path / name
    path.write_text(graph6_encode(g) + "\n", encoding="ascii")
    return str(path)


def test_gen_writes_graph6(tmp_path, capsys):
    out = tmp_path / "c6.g6"
    code, report, _ = run(capsys, ["gen", "cycle", "6", "--out", str(out)])
    assert code == 0
    assert report["command"] == "gen"
    assert report["inputs"] == {"family": "cycle", "params": ["6"]}
    assert report["result"]["vertices"] == 6
    assert report["result"]["edges"] == 6
    assert "elapsed_ms" in report
    g = graph6_decode(out.read_text().strip())
    assert are_isomorphic(g, cycle(6)) is not None
    assert report["result"]["graph6"] == graph6_encode(cycle(6))


def test_gen_families(capsys):
    code, report, _ = run(capsys, ["gen", "petersen"])
    assert code == 0 and report["result"]["vertices"] == 10

    code, report, _ = run(capsys, ["gen", "odd", "3"])
    assert code == 0
    assert report["result"]["vertices"] == 10
    assert len(report["result"]["symbol_generators"]) >= 1

    code, report, _ = run(capsys, ["gen", "complete-bipartite", "3", "3"])
    assert code == 0 and report["result"]["edges"] == 9

    code, report, _ = run(capsys, ["gen", "matching-join", "K3", "K3"])
    assert code == 0
    got = graph6_decode(report["result"]["graph6"])
    want = matching_join(complete(3), complete(3), [0, 1, 2])
    assert are_isomorphic(got, want) is not None

    code, report, _ = run(capsys, ["gen", "matching-join", "C5", "C5",
                                   "--phi", "0,3,1,4,2"])
    assert code == 0
    assert are_isomorphic(graph6_decode(report["result"]["graph6"]),
                          petersen()) is not None

    code, report, _ = run(capsys, ["gen", "composition", "C5", "2"])
    assert code == 0 and report["result"]["vertices"] == 10

    code, report, _ = run(capsys, ["gen", "subdivide-non-matching", "C6",
                                   "--edges", "0-1,2-3,4-5"])
    assert code == 0
    assert are_isomorphic(graph6_decode(report["result"]["graph6"]),
                          cycle(9)) is not None

    code, report, _ = run(capsys, ["gen", "subdivide-all", "K3"])
    assert code == 0
    assert report["result"]["edge_vertices"] == {"0-1": 3, "0-2": 4, "1-2": 5}


# every gen family: (command-line parameters, options, the library's graph)
GEN_CASES = {
    "complete": (["5"], [], complete(5)),
    "empty": (["4"], [], empty_graph(4)),
    "complete-bipartite": (["2", "3"], [], complete_bipartite(2, 3)),
    "cycle": (["7"], [], cycle(7)),
    "path": (["4"], [], path_graph(4)),
    "petersen": ([], [], petersen()),
    "odd": (["3"], [], odd_graph(3)[0]),
    "hypercube": (["3"], [], hypercube(3)),
    "folded-hypercube": (["4"], [], folded_hypercube(4)),
    "paley": (["7"], [], paley_incidence(7)),
    "paley-cliques": (["7"], [], paley_incidence_cliques(7)),
    "join": (["K3", "Kbar2"], [], join(complete(3), empty_graph(2))),
    "matching-join": (["C5", "C5"], ["--phi", "0,3,1,4,2"],
                      matching_join(cycle(5), cycle(5), [0, 3, 1, 4, 2])),
    "composition": (["P3", "2"], [], composition(path_graph(3), 2)),
    "subdivide-all": (["K2,3"], [], subdivide_all(complete_bipartite(2, 3))[0]),
    "subdivide-non-matching": (["C6"], ["--edges", "0-1,2-3,4-5"],
                               subdivide_non_matching(cycle(6), Matching.parse("0-1,2-3,4-5"))),
    "subdivide-matching-twice": (["P4"], ["--edges", "0-1,2-3"],
                                 subdivide_matching_twice(path_graph(4),
                                                          Matching.parse("0-1,2-3"))),
}


@pytest.mark.parametrize("family", sorted(GEN_CASES))
def test_gen_every_family(capsys, family):
    assert set(GEN_CASES) == set(permatch.cli._FAMILIES)
    params, options, want = GEN_CASES[family]
    code, report, err = run(capsys, ["gen", family] + params + options)
    assert code == 0 and err == ""
    assert report["inputs"] == {"family": family, "params": params}
    assert report["result"]["graph6"] == graph6_encode(want)

    code, report, err = run(capsys, ["gen", family] + params + ["3"] + options)
    assert code == 2 and report is None
    assert err == "error: %s expects %d parameter(s)\n" % (family, len(params))


def test_gen_help_names_every_family(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping inside names
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    listed = help_text.split("one of: ")[1].splitlines()[0].split(", ")
    assert listed == list(permatch.cli._FAMILIES) and set(listed) == set(GEN_CASES)


def test_gen_rejects_bad_input(capsys):
    code, report, err = run(capsys, ["gen", "nonesuch"])
    assert code == 2 and report is None and "error:" in err
    code, _, err = run(capsys, ["gen", "cycle", "2"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["gen", "complete"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["gen", "subdivide-non-matching", "C6"])
    assert code == 2 and "error:" in err


def test_aut_command(tmp_path, capsys):
    path = write_graph(tmp_path, petersen())
    code, report, _ = run(capsys, ["aut", path])
    assert code == 0
    res = report["result"]
    assert res["order"] == 120
    assert res["orbits"] == [list(range(10))]
    assert res["canonical_graph6"] == canonical_graph6(petersen())
    assert len(res["generators"]) >= 1

    code, _, err = run(capsys, ["aut", str(tmp_path / "missing.g6")])
    assert code == 2 and "error:" in err


def test_matching_analyze(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    code, report, _ = run(capsys, ["matching", "analyze", path,
                                   "--edges", "0-1,2-3,4-5"])
    assert code == 0 and report["inputs"]["check"] is None
    res = report["result"]
    assert res["is_matching"] and res["is_perfect"]
    assert res["stabilizer_order"] == 6 and res["induced_order"] == 6
    assert res["permutable"] and res["two_transitive"]

    code, _, _ = run(capsys, ["matching", "analyze", path,
                              "--edges", "0-1,2-3,4-5", "--check", "permutable"])
    assert code == 0

    # the report names the normalized mode that decided its exit code
    path8 = write_graph(tmp_path, cycle(8), "c8.g6")
    for check, mode in (("permutable", "permutable"), ("Two_Transitive", "two-transitive")):
        code, report, _ = run(capsys, ["matching", "analyze", path8,
                                       "--edges", "0-1,2-3,4-5", "--check", check])
        assert code == 1 and report["inputs"]["check"] == mode
        assert report["result"]["permutable"] is False

    code, _, err = run(capsys, ["matching", "analyze", path, "--edges", "0-2"])
    assert code == 2 and "error:" in err

    # a bad mode is rejected before any report is written
    code, report, err = run(capsys, ["matching", "analyze", path,
                                     "--edges", "0-1,2-3,4-5", "--check", "bogus"])
    assert code == 2 and report is None and "unknown mode" in err


def test_matching_find(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    code, report, _ = run(capsys, ["matching", "find", path, "-m", "3"])
    assert code == 0
    assert report["result"]["found"] is True
    assert report["result"]["report"]["permutable"] is True

    path8 = write_graph(tmp_path, cycle(8), "c8.g6")
    code, report, _ = run(capsys, ["matching", "find", path8, "-m", "3"])
    assert code == 1 and report["result"]["found"] is False

    code, report, _ = run(capsys, ["matching", "find", path8, "-m", "3",
                                   "--mode", "two_transitive"])
    assert code == 1


def test_group_file_input(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    gens = tmp_path / "gens.txt"
    gens.write_text("# rotation only\n(0 1 2 3 4 5)\n", encoding="ascii")
    code, report, _ = run(capsys, ["matching", "analyze", path,
                                   "--edges", "0-1,2-3,4-5",
                                   "--group", str(gens)])
    assert code == 0
    res = report["result"]
    assert res["group_order"] == 6
    assert res["stabilizer_order"] == 3 and res["induced_order"] == 3
    assert res["permutable"] is False

    bad = tmp_path / "bad.txt"
    bad.write_text("(0 1)\n", encoding="ascii")
    code, _, err = run(capsys, ["matching", "analyze", path,
                                "--edges", "0-1,2-3,4-5", "--group", str(bad)])
    assert code == 2 and "error:" in err


def test_group_file_is_checked_once(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, cycle(6))
    gens = tmp_path / "d6.txt"
    gens.write_text("(0 1 2 3 4 5)\n(1 5)(2 4)\n", encoding="ascii")
    checked = []
    original = Graph.is_automorphism
    monkeypatch.setattr(Graph, "is_automorphism",
                        lambda self, p: checked.append(p) or original(self, p))
    aut_gens = len(automorphism_group(cycle(6)).generators)
    for argv in (["arcs", path],
                 ["matching", "analyze", path, "--edges", "0-1,2-3,4-5"],
                 ["matching", "find", path, "-m", "3"],
                 ["near-polygonal", path]):
        # once per generator, by _read_group; every later check is a lookup
        for group, calls in ((str(gens), 2), ("auto", aut_gens)):
            checked.clear()
            code, report, _ = run(capsys, argv + ["--group", group])
            assert code == 0 and report is not None
            assert len(checked) == calls, (argv, group)


def test_cover_command(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    prefix = str(tmp_path / "cover")
    code, report, _ = run(capsys, ["cover", path, "-p", "2",
                                   "--tree-contains", "0-1,2-3,4-5",
                                   "--out", prefix])
    assert code == 0
    res = report["result"]
    assert res["base_vertices"] == 6 and res["cover_vertices"] == 12
    assert res["p"] == 2 and res["k"] == 1
    assert res["lifted_group_order"] == 24
    assert res["lifted_matching"] == "0-1,2-3,4-5"
    rep = res["lifted_matching_report"]
    assert rep["stabilizer_order"] == 2 and rep["induced_order"] == 2
    assert rep["permutable"] is False

    cov = graph6_decode((tmp_path / "cover.g6").read_text().strip())
    assert are_isomorphic(cov, cycle(12)) is not None
    # the fibers file is a partition, fiber v at index v, that quotient reads
    fibers = json.loads((tmp_path / "cover.fibers.json").read_text())
    assert fibers == [[v, v + 6] for v in range(6)]
    code, report, _ = run(capsys, ["quotient", prefix + ".g6", "--partition",
                                   prefix + ".fibers.json"])
    assert code == 0 and report["result"]["regular_cover"] is True
    assert report["result"]["blocks"] == fibers

    code, _, err = run(capsys, ["cover", path, "-p", "9"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["cover", path, "-p", "2",
                                "--max-vertices", "5"])
    assert code == 2 and "error:" in err
    # tree edges that share a vertex lift to no matching
    code, _, err = run(capsys, ["cover", path, "-p", "2",
                                "--tree-contains", "0-1,1-2"])
    assert code == 2 and "not disjoint" in err
    code, _, err = run(capsys, ["cover", path, "-p", "2", "--tree-contains", "0-1-2"])
    assert code == 2 and "malformed" in err
    code, _, err = run(capsys, ["cover", path, "-p", "2", "--tree-contains", "99-0"])
    assert code == 2 and "not an edge" in err

    # the default cap is the library's
    args = permatch.cli.build_parser().parse_args(["cover", path, "-p", "2"])
    assert args.max_vertices == permatch.voltage.DEFAULT_COVER_CAP

    # a huge prime passes the primality test at once and the size cap rejects it
    k4 = write_graph(tmp_path, complete(4), "k4.g6")
    for g6, p in ((path, "1000000007"), (k4, "1000000000000000003")):
        started = time.monotonic()
        code, report, err = run(capsys, ["cover", g6, "-p", p])
        assert code == 2 and report is None and "(cap 100000)" in err
        assert time.monotonic() - started < 1.0


def test_near_polygonal_command(tmp_path, capsys):
    path = write_graph(tmp_path, complete(4))
    code, report, _ = run(capsys, ["near-polygonal", path])
    assert code == 0
    res = report["result"]
    assert res["found"] and res["cycle_length"] == 3 and res["cycle_count"] == 4

    path = write_graph(tmp_path, petersen(), "pet.g6")
    code, report, _ = run(capsys, ["near-polygonal", path])
    assert code == 1 and report["result"]["found"] is False

    path = write_graph(tmp_path, matching_join(complete(3), complete(3),
                                               [0, 1, 2]), "prism.g6")
    code, _, err = run(capsys, ["near-polygonal", path])
    assert code == 2 and "error:" in err


def test_quotient_command(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    part = tmp_path / "part.json"
    part.write_text(json.dumps([[0, 3], [1, 4], [2, 5]]), encoding="ascii")
    code, report, _ = run(capsys, ["quotient", path, "--partition", str(part)])
    assert code == 0
    res = report["result"]
    assert res["regular_cover"] is True
    assert are_isomorphic(graph6_decode(res["quotient_graph6"]),
                          cycle(3)) is not None
    assert res["blocks"] == [[0, 3], [1, 4], [2, 5]]

    code, report, _ = run(capsys, ["quotient", path, "--partition", str(part),
                                   "--group", "auto"])
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0, 1], [2, 3]]), encoding="ascii")
    code, _, err = run(capsys, ["quotient", path, "--partition", str(bad)])
    assert code == 2 and "error:" in err
    notlist = tmp_path / "notlist.json"
    notlist.write_text(json.dumps({"a": 1}), encoding="ascii")
    code, _, err = run(capsys, ["quotient", path, "--partition", str(notlist)])
    assert code == 2 and "error:" in err

    c4 = write_graph(tmp_path, cycle(4), "c4.g6")
    for name, blocks in [("string", [[0, 1], [2, "3"]]),
                         ("bool", [[0, True], [2, 3]]),
                         ("range", [[0, 1], [2, 4]]),
                         ("negative", [[0, 1], [2, -1]])]:
        entry = tmp_path / ("%s.json" % name)
        entry.write_text(json.dumps(blocks), encoding="ascii")
        code, _, err = run(capsys, ["quotient", c4, "--partition", str(entry)])
        assert code == 2 and "error:" in err and "is not a vertex" in err, name


def test_quotient_rejects_deeply_nested_partition(tmp_path, capsys):
    # json.load raises RecursionError on this; it is bad input, not a failed property
    path = write_graph(tmp_path, cycle(6))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="ascii")
    code, report, err = run(capsys, ["quotient", path, "--partition", str(deep)])
    assert code == 2 and report is None
    assert err.startswith("error:") and "Traceback" not in err


# each command, a run that reports, and a run that fails on its input
REPORT_CASES = [
    ("gen", ["gen", "petersen"], ["gen", "nonesuch"]),
    ("aut", ["aut", "{c6}"], ["aut", "{missing}"]),
    ("matching-analyze", ["matching", "analyze", "{c6}", "--edges", "0-1,2-3,4-5"],
     ["matching", "analyze", "{c6}", "--edges", "0-2"]),
    ("matching-find", ["matching", "find", "{c6}", "-m", "3"],
     ["matching", "find", "{missing}", "-m", "3"]),
    ("cover", ["cover", "{c6}", "-p", "2"], ["cover", "{c6}", "-p", "4"]),
    ("near-polygonal", ["near-polygonal", "{c6}"], ["near-polygonal", "{missing}"]),
    ("quotient", ["quotient", "{c6}", "--partition", "{part}"],
     ["quotient", "{c6}", "--partition", "{missing}"]),
    ("arcs", ["arcs", "{c6}"], ["arcs", "{c6}", "--group", "{missing}"]),
    ("classify", ["classify", "--m", "2"], ["classify", "--m", "1"]),
]


@pytest.mark.parametrize("command, argv, bad_argv", REPORT_CASES,
                         ids=[case[0] for case in REPORT_CASES])
def test_report_shape(tmp_path, capsys, command, argv, bad_argv):
    part = tmp_path / "part.json"
    part.write_text(json.dumps([[0, 3], [1, 4], [2, 5]]), encoding="ascii")
    paths = {"c6": write_graph(tmp_path, cycle(6)), "part": str(part),
             "missing": str(tmp_path / "missing")}
    code, report, err = run(capsys, [a.format(**paths) for a in argv])
    assert code in (0, 1) and err == ""
    assert sorted(report) == ["command", "elapsed_ms", "inputs", "result"]
    assert report["command"] == command
    assert type(report["elapsed_ms"]) is int and report["elapsed_ms"] >= 0

    code, report, err = run(capsys, [a.format(**paths) for a in bad_argv])
    assert code == 2 and report is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("permatch.cli.automorphism_group", boom)
    path = write_graph(tmp_path, cycle(6))
    code, report, err = run(capsys, ["aut", path])
    assert code == 3 and report is None
    assert err == "error: internal: RuntimeError: boom\n"


def test_internal_key_error_exits_3(tmp_path, capsys, monkeypatch):
    # no input reaches a KeyError, so one raised inside a command is a bug
    def boom(*args, **kwargs):
        raise KeyError(5)

    monkeypatch.setattr("permatch.cli.automorphism_group", boom)
    path = write_graph(tmp_path, cycle(6))
    code, report, err = run(capsys, ["aut", path])
    assert code == 3 and report is None
    assert err == "error: internal: KeyError: 5\n"


def test_arcs_command(tmp_path, capsys):
    path = write_graph(tmp_path, petersen())
    code, report, _ = run(capsys, ["arcs", path])
    assert code == 0
    assert report["result"] == {"arc_transitive": True,
                                "two_arc_transitive": True}

    path = write_graph(tmp_path, matching_join(complete(3), complete(3),
                                               [0, 1, 2]), "prism.g6")
    code, report, _ = run(capsys, ["arcs", path])
    assert code == 0
    assert report["result"]["arc_transitive"] is False


def test_classify_command(capsys):
    code, report, _ = run(capsys, ["classify", "--m", "2"])
    assert code == 0
    assert report["result"]["match"] is True
    assert len(report["result"]["observed"]) == 4
    assert report["result"]["observed"] == report["result"]["expected"]

    code, report, _ = run(capsys, ["classify", "--m", "2",
                                   "--mode", "two_transitive"])
    assert code == 0 and report["result"]["mode"] == "two-transitive"

    code, report, _ = run(capsys, ["classify", "--m", "10"])
    assert code == 0 and len(report["result"]["observed"]) == 5

    # the m = 6 class outside the catalog (see test_classify)
    code, report, _ = run(capsys, ["classify", "--m", "6", "--mode", "two-transitive"])
    assert code == 1 and report["result"]["match"] is False


def test_classify_rejects_m_out_of_range(capsys):
    for argv in (["--m", "0"], ["--m", "1"], ["--m", "11"],
                 ["--m", "9", "--mode", "two-transitive"]):
        started = time.monotonic()
        code, report, err = run(capsys, ["classify"] + argv)
        assert code == 2 and report is None
        assert "2 <= m <= 10" in err and "2 <= m <= 8" in err
        assert time.monotonic() - started < 0.5
    code, report, err = run(capsys, ["classify", "--m", "2", "--mode", "cyclic"])
    assert code == 2 and report is None and "unknown mode" in err


def test_module_entry_point(tmp_path):
    # run from the directory holding the package under test, so that the
    # child imports it whether or not PYTHONPATH names it
    proc = subprocess.run(
        [sys.executable, "-m", "permatch.cli", "gen", "petersen"],
        capture_output=True, text=True, timeout=60,
        cwd=os.path.dirname(os.path.dirname(permatch.cli.__file__)))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["vertices"] == 10

    proc = subprocess.run(
        [sys.executable, "-m", "permatch.cli", "gen", "nonesuch"],
        capture_output=True, text=True, timeout=60,
        cwd=os.path.dirname(os.path.dirname(permatch.cli.__file__)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: unknown family: nonesuch\n"


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    # every line of README's command block, run in order in one directory,
    # exits 0 unless it is annotated "# exit N"
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("permatch ") for line in lines)
    monkeypatch.chdir(tmp_path)
    reports = {}
    for line in lines:
        command, _, note = line.partition("#")
        expected = int(note.split()[1]) if note else 0
        code, report, err = run(capsys, shlex.split(command)[1:])
        assert code == expected, (line, err)
        reports[report["command"]] = report["result"]
    assert reports["quotient"]["regular_cover"] is True
    assert reports["quotient"]["quotient_graph6"] == graph6_encode(petersen())


@pytest.mark.parametrize("params, message", [
    (["hypercube", "0"], "hypercube needs m >= 1"),
    (["odd", "1"], "odd graph needs m >= 2"),
    (["folded-hypercube", "1"], "folded hypercube needs m >= 2"),
    (["composition", "K3", "0"], "need m >= 1 copies"),
], ids=["hypercube", "odd", "folded-hypercube", "composition"])
def test_gen_rejects_out_of_range_parameters(capsys, params, message):
    code, report, err = run(capsys, ["gen"] + params)
    assert code == 2 and report is None and "error: " + message in err


@pytest.mark.parametrize("line, message", [
    ("(0 1", "malformed cycle notation"),
    ("(0 99)", "cycle entry 99 out of range"),
    ("(0 1)(1 2)", "cycles are not disjoint at 1"),
], ids=["unclosed", "out-of-range", "overlapping"])
def test_group_file_rejects_bad_cycles(tmp_path, capsys, line, message):
    path = write_graph(tmp_path, cycle(6))
    gens = tmp_path / "gens.txt"
    gens.write_text(line + "\n", encoding="ascii")
    code, report, err = run(capsys, ["matching", "analyze", path,
                                     "--edges", "0-1,2-3,4-5", "--group", str(gens)])
    assert code == 2 and report is None and "error: " + message in err


def test_empty_graph_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("\n", encoding="ascii")
    code, report, err = run(capsys, ["aut", str(path)])
    assert code == 2 and report is None and "empty graph file" in err


def test_gen_reads_a_graph6_operand(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(4))
    code, report, _ = run(capsys, ["gen", "join", path, "K3"])
    assert code == 0
    assert graph6_decode(report["result"]["graph6"]) == join(cycle(4), complete(3))
