"""End-to-end CLI tests: exit codes, file round-trips, JSON mirrors,
determinism."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankw
from rankw.cli import main
from rankw.graphs import parse_graph
from rankw.layouts import parse_newick
from rankw.terms import (eval_birank_term, eval_rank_term,
                         parse_term, term_from_layout_birank,
                         term_from_layout_rank)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_c5(tmp_path):
    path = tmp_path / "c5.rg"
    edges = ",".join(f"v{i + 1}-v{(i + 1) % 5 + 1}" for i in range(5))
    assert main(["encode", "--from", "undirected", "--edges", edges,
                 "--out", str(path)]) == 0
    return path


def test_encode_directed_codes(capsys):
    code, out, _ = run(capsys, "encode", "--from", "directed", "--arcs", "x>y")
    assert code == 0
    G = parse_graph(out)
    assert G.adj.tolist() == [[0, 2], [3, 0]]
    assert G.field.q == 4


def test_encode_roundtrip_and_dot(tmp_path, capsys):
    out_rg = tmp_path / "t.rg"
    out_dot = tmp_path / "t.dot"
    code = main(["encode", "--from", "oriented", "--arcs", "a>b,b>c",
                 "--out", str(out_rg), "--emit-dot", str(out_dot)])
    assert code == 0
    G = parse_graph(out_rg.read_text())
    assert G.field.q == 3
    assert "->" in out_dot.read_text()


def test_width_c5(tmp_path, capsys):
    path = write_c5(tmp_path)
    code, out, _ = run(capsys, "width", "--input", str(path), "--param", "rank")
    assert code == 0
    assert out.splitlines()[0] == "width 2"
    code, out, _ = run(capsys, "width", "--input", str(path), "--param",
                       "rank", "--json")
    payload = json.loads(out)
    assert payload["width"] == 2
    assert set(payload) == {"width", "witness", "cuts", "stats"}
    assert all(set(c) == {"side", "value"} for c in payload["cuts"])
    L = parse_newick(payload["witness"])
    assert sorted(L.leaves.values()) == [f"v{i}" for i in range(1, 6)]
    # the search's counters: the JSON's stats key, and stderr with --stats
    stats = payload["stats"]
    assert set(stats) == {"cut_evaluations", "capped_evaluations", "blocks_pruned",
                          "cuts_bounded", "subsets_searched"}
    searched = stats["subsets_searched"]
    assert 0 < stats["cut_evaluations"] <= 16 and list(searched) == ["1", "2"]
    assert stats["capped_evaluations"] == 0  # only a decision caps cut ranks
    assert stats["blocks_pruned"] <= stats["cuts_bounded"]
    lines = [f"stats: {name} {stats[name]}" for name in (
        "cut_evaluations", "capped_evaluations", "blocks_pruned", "cuts_bounded")] + [
        f"stats: subsets_searched k={k} {searched[k]}" for k in ("1", "2")]
    assert run(capsys, "width", "--input", str(path), "--json", "--stats") == \
        (0, out, "\n".join(lines) + "\n")
    code, text, err = run(capsys, "width", "--input", str(path), "--stats")
    assert code == 0 and text.startswith("width 2\n") and err.splitlines() == lines
    code, out, err = run(capsys, "width", "--input", str(path), "--k", "1",
                         "--json", "--stats")
    payload = json.loads(out)
    assert payload["witness"] is None and list(payload["stats"]["subsets_searched"]) == ["1"]
    capped = payload["stats"]["capped_evaluations"]
    assert 0 < capped <= payload["stats"]["cut_evaluations"]
    assert err.splitlines()[1:5] == [f"stats: capped_evaluations {capped}"] + [
        f"stats: {name} {payload['stats'][name]}"
        for name in ("blocks_pruned", "cuts_bounded")] + ["stats: subsets_searched k=1 1"]


def test_width_decision_and_layout_file(tmp_path, capsys):
    path = write_c5(tmp_path)
    code, out, _ = run(capsys, "width", "--input", str(path), "--k", "1")
    assert code == 0 and out.strip() == "width > 1"
    nwk = tmp_path / "w.nwk"
    code, out, _ = run(capsys, "width", "--input", str(path), "--k", "2",
                       "--emit-layout", str(nwk))
    assert code == 0 and out.splitlines()[0] == "width <= 2"
    assert parse_newick(nwk.read_text()).n == 5
    # a bound past the byte range of the flat cut table
    code, out, _ = run(capsys, "width", "--input", str(path), "--k", "300")
    assert code == 0 and out.splitlines()[0] == "width <= 300"


def test_cut_lambda_k3(tmp_path, capsys):
    path = tmp_path / "k3.rg"
    main(["encode", "--from", "undirected", "--edges", "v1-v2,v2-v3,v1-v3",
          "--out", str(path)])
    code, out, _ = run(capsys, "cut", "--input", str(path), "--set", "v1",
                       "--kind", "lambda")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "cut", "--input", str(path), "--set", "v1,v2",
                       "--kind", "cutrk", "--json")
    assert json.loads(out)["value"] == 1


def test_transform_local_and_pivot(tmp_path, capsys):
    path = write_c5(tmp_path)
    code, out, _ = run(capsys, "transform", "--input", str(path),
                       "--local", "v1", "--lambda", "1")
    assert code == 0
    H = parse_graph(out)
    assert H.color("v2", "v5") == 1   # new chord across v1's neighbors
    code, out, _ = run(capsys, "transform", "--input", str(path),
                       "--pivot", "v1,v2")
    assert code == 0
    assert parse_graph(out).n == 5


def test_transform_writes_sigma_when_the_matrix_stays_symmetric(tmp_path, capsys):
    """A local move with a lambda that is not sigma-compatible, at a vertex
    with one neighbour, leaves the matrix as it was: the output keeps its
    sigma line.  At a vertex with two neighbours it has none."""
    path = tmp_path / "d.rg"
    assert main(["encode", "--from", "directed", "--arcs", "a>b,b>c,c>a,c>d",
                 "--out", str(path)]) == 0
    assert run(capsys, "transform", "--input", str(path), "--local", "d",
               "--lambda", "2") == (0, path.read_text(), "")
    code, out, _ = run(capsys, "transform", "--input", str(path), "--local", "c",
                       "--lambda", "2")
    assert code == 0 and "sigma" not in out


def test_library_preconditions_reach_the_cli(tmp_path, capsys):
    """A pivot on a graph file without sigma, and a rank term compiled from
    one, exit 1 with the library's message as the one line on stderr."""
    path = tmp_path / "nosigma.rg"
    path.write_text("field 2 1\nvertices a b\nedge a b 1\nedge b a 1\n")
    nwk = tmp_path / "ab.nwk"
    nwk.write_text("(a,b);\n")
    assert run(capsys, "transform", "--input", str(path), "--pivot", "a,b") == \
        (1, "", "error: pivot complementation needs a sigma-symmetric graph\n")
    assert run(capsys, "term", "compile", "--input", str(path),
               "--layout", str(nwk)) == \
        (1, "", "error: rank terms compile from sigma-symmetric graphs\n")


def test_transform_above_order_256_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "p3.rg"
    path.write_text("field 257 1\nvertices a b c\n"
                    "edge a b 1\nedge b a 1\nedge b c 1\nedge c b 1\n")
    code, out, err = run(capsys, "transform", "--input", str(path),
                         "--local", "b", "--lambda", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "order > 256" in err


def test_term_compile_above_order_256_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "k2.rg"
    path.write_text("field 257 1\nsigma id\nvertices a b\nedge a b 1\nedge b a 1\n")
    nwk = tmp_path / "k2.nwk"
    nwk.write_text("(a,b);\n")
    for param in ("rank", "birank"):
        code, out, err = run(capsys, "term", "compile", "--input", str(path),
                             "--param", param, "--layout", str(nwk))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "order > 256" in err


def test_term_compile_eval_roundtrip(tmp_path, capsys):
    path = write_c5(tmp_path)
    term_path = tmp_path / "c5.term"
    assert main(["term", "compile", "--input", str(path), "--param", "rank",
                 "--out", str(term_path)]) == 0
    t = parse_term(term_path.read_text())
    code, out, _ = run(capsys, "term", "eval", "--input", str(term_path),
                       "--field", "2", "1", "--sigma", "id")
    assert code == 0
    G = parse_graph(out)
    assert G.n == 5 and int((G.adj != 0).sum()) == 10
    # bi-rank route
    term2 = tmp_path / "c5.biterm"
    assert main(["term", "compile", "--input", str(path), "--param", "birank",
                 "--out", str(term2)]) == 0
    code, out, _ = run(capsys, "term", "eval", "--input", str(term2),
                       "--field", "2", "1")
    assert code == 0 and parse_graph(out).n == 5


def test_term_compile_with_explicit_layout(tmp_path, capsys):
    path = write_c5(tmp_path)
    nwk = tmp_path / "cat.nwk"
    nwk.write_text("(v1,(v2,(v3,(v4,v5))));\n# width 2\n")
    term_path = tmp_path / "cat.term"
    assert main(["term", "compile", "--input", str(path), "--param", "rank",
                 "--layout", str(nwk), "--out", str(term_path)]) == 0
    code, out, _ = run(capsys, "term", "eval", "--input", str(term_path),
                       "--field", "2", "1", "--sigma", "id")
    assert code == 0
    G = parse_graph(out)
    assert G.n == 5 and int((G.adj != 0).sum()) == 10
    # redundant parentheses at the root are allowed
    nwk.write_text("(((v1,v2),(v3,(v4,v5))));\n")
    assert main(["term", "compile", "--input", str(path), "--layout", str(nwk),
                 "--out", str(term_path)]) == 0
    # a layout whose leaves are not the graph's vertices is refused
    bad = tmp_path / "bad.nwk"
    bad.write_text("(a,(b,(c,(d,e))));\n")
    code, _, err = run(capsys, "term", "compile", "--input", str(path),
                       "--layout", str(bad))
    assert code == 1


def test_term_compile_deep_layout(tmp_path, capsys):
    """Two 600-leaf caterpillars joined at the root nest 601 deep as text
    but about 1,200 deep once rooted at the first vertex's leaf.  The layout
    compiles, and its term file reads back and evaluates."""
    def caterpillar(lo, hi):
        text = f"v{lo}"
        for i in range(lo + 1, hi):
            text = f"({text},v{i})"
        return text

    graph = tmp_path / "edgeless.rg"
    graph.write_text("field 2 1\nsigma id\nvertices "
                     + " ".join(f"v{i}" for i in range(1200)) + "\n")
    layout = tmp_path / "deep.nwk"
    layout.write_text(f"({caterpillar(0, 600)},{caterpillar(600, 1200)});\n")
    term = tmp_path / "deep.term"
    code, out, err = run(capsys, "term", "compile", "--input", str(graph),
                         "--layout", str(layout), "--out", str(term))
    assert code == 0 and out == "" and err == ""
    G = parse_graph(graph.read_text())
    L = parse_newick(layout.read_text())
    t = term_from_layout_rank(G, L)
    assert parse_term(term.read_text()) == t
    for ev in (eval_rank_term(t, G.sigma),
               eval_birank_term(term_from_layout_birank(G, L), G.field)):
        assert ev.graph.n == 1200 and not any(ev.graph.codes)


def test_obstructions_output(tmp_path, capsys):
    outdir = tmp_path / "obs"
    code, out, _ = run(capsys, "obstructions", "--field", "2", "1", "--sigma",
                       "id", "--relation", "pivot", "--k", "0", "--max-n", "3",
                       "--out", str(outdir), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["index.txt", "obstruction_000.rg"]
    G = parse_graph((outdir / "obstruction_000.rg").read_text())
    assert G.n == 2
    assert "canonical=" in (outdir / "index.txt").read_text()
    # the search's counters, per level n: the JSON's stats key, and stderr
    # with --stats
    stats = payload["stats"]
    names = ["extensions_labelled", "connected_graphs", "width_decisions",
             "class_size", "candidates", "orbit_searches", "verdicts_reused"]
    assert sorted(stats) == sorted(names)
    assert all(list(counts) == ["2", "3"] for counts in stats.values())
    assert stats["candidates"]["2"] == 1 and stats["class_size"]["2"] == 0
    code, text, err = run(capsys, "obstructions", "--field", "2", "1", "--sigma",
                          "id", "--relation", "pivot", "--k", "0", "--max-n", "3",
                          "--out", str(outdir), "--stats")
    assert code == 0 and text.startswith("1 obstruction(s)")
    assert err.splitlines() == [f"stats: {name} n={n} {stats[name][n]}"
                                for name in names for n in ("2", "3")]


def test_determinism(tmp_path, capsys):
    path = write_c5(tmp_path)
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "width", "--input", str(path), "--json")
        outputs.add(out)
    assert len(outputs) == 1
    _, out1, _ = run(capsys, "obstructions", "--field", "2", "1", "--sigma",
                     "id", "--relation", "pivot", "--k", "0", "--max-n", "3",
                     "--out", str(tmp_path / "o1"), "--json")
    _, out2, _ = run(capsys, "obstructions", "--field", "2", "1", "--sigma",
                     "id", "--relation", "pivot", "--k", "0", "--max-n", "3",
                     "--out", str(tmp_path / "o2"), "--json")
    assert out1 == out2
    assert (tmp_path / "o1" / "obstruction_000.rg").read_text() == \
        (tmp_path / "o2" / "obstruction_000.rg").read_text()


def test_exit_codes(tmp_path, capsys):
    # domain error: width 'rank' without a sigma declaration
    path = tmp_path / "nosigma.rg"
    path.write_text("field 2 1\nvertices a b\nedge a b 1\n")
    assert run(capsys, "width", "--input", str(path), "--param", "rank") == \
        (1, "", "error: cutrk is defined only for sigma-symmetric graphs\n")
    # domain error: an edge code outside the field names its line
    path.write_text("field 2 1\nvertices a b\nedge a b 70000\n")
    code, out, err = run(capsys, "width", "--input", str(path))
    assert code == 1 and out == "" and err.startswith("error: line 3: edge code")
    # domain error: codes are plain ASCII digits (int() would read 1 here)
    path.write_text("field 2 1\nvertices a b\nedge a b \u0661\n")
    code, out, err = run(capsys, "width", "--input", str(path))
    assert code == 1 and out == "" and err.startswith("error: line 3: edge code")
    term = tmp_path / "bad.term"
    term.write_text("(const 1_0)")
    code, out, err = run(capsys, "term", "eval", "--input", str(term),
                         "--field", "2", "1", "--sigma", "id")
    assert code == 1 and out == "" and err.startswith("error: constant color")
    # success: a term file 1,000 levels deep (zero cross matrices keep the
    # evaluated graph edgeless); truncated, it is a domain error
    deep = "(prod [1 1; 0] [1 1; 1] [1 1; 1] " * 1000 + "(const 1) "
    term.write_text(deep + "(const 1))" * 1000)
    code, out, err = run(capsys, "term", "eval", "--input", str(term),
                         "--field", "2", "1", "--sigma", "id")
    G = parse_graph(out)
    assert code == 0 and err == "" and G.n == 1001 and not any(G.codes)
    term.write_text(deep + "(const 1))" * 999)
    code, out, err = run(capsys, "term", "eval", "--input", str(term),
                         "--field", "2", "1", "--sigma", "id")
    assert code == 1 and out == "" and err == "error: unexpected end of term\n"
    c5 = write_c5(tmp_path)
    layout = tmp_path / "deep.nwk"
    # domain error: a layout 3,000 levels deep reads back, and its leaves
    # are checked; truncated, it ends inside a group
    for text, error in [("(" * 3000 + "v1" + ",x)" * 3000 + ";\n",
                         "leaf labels must be distinct"),
                        ("(" * 3000 + "v1" + ",x)" * 2999 + ",",
                         "unexpected end of layout text")]:
        layout.write_text(text)
        code, out, err = run(capsys, "term", "compile", "--input", str(c5),
                             "--layout", str(layout))
        assert code == 1 and out == "" and err == f"error: {error}\n"
    # domain error: pivot at a non-edge
    code, _, err = run(capsys, "transform", "--input", str(c5),
                       "--pivot", "v1,v3")
    assert code == 1 and "edge" in err
    # domain error: unknown vertex in cut
    code, _, err = run(capsys, "cut", "--input", str(c5), "--set", "zz")
    assert code == 1
    # success: a forced search on 1,000 vertices has no depth limit, and its
    # layout and term files, about 1,000 levels deep, read back
    edgeless = tmp_path / "edgeless.rg"
    edgeless.write_text("field 2 1\nsigma id\nvertices "
                        + " ".join(f"v{i}" for i in range(1000)) + "\n")
    code, out, err = run(capsys, "width", "--input", str(edgeless), "--force",
                         "--emit-layout", str(layout))
    assert code == 0 and out.startswith("width 0\n") and err == ""
    assert layout.read_text().count("(") == 999
    code, out, err = run(capsys, "term", "compile", "--input", str(edgeless),
                         "--layout", str(layout), "--out", str(term))
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "term", "compile", "--input", str(edgeless),
                         "--force", "--out", str(term))
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "term", "eval", "--input", str(term),
                         "--field", "2", "1", "--sigma", "id")
    G = parse_graph(out)
    assert code == 0 and err == "" and G.n == 1000 and not any(G.codes)
    # usage error: integer options take plain ASCII digits, as files do
    for argv in (["width", "--input", str(c5), "--k", "1_0"],
                 ["width", "--input", str(c5), "--k", "\u0662"],
                 ["transform", "--input", str(c5), "--local", "v1",
                  "--lambda", "1_0"],
                 ["term", "eval", "--input", str(term), "--field", "2", "\u0661"],
                 ["obstructions", "--field", "2", "1", "--sigma", "id",
                  "--relation", "vertex", "--k", "1", "--max-n", "\u0663",
                  "--out", str(tmp_path / "obs")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # usage error: bad subcommand
    for argv in (["frobnicate"], ["selfcheck"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        main(["width"])
    assert exc.value.code == 2


def test_bad_inputs_are_domain_errors(tmp_path, capsys):
    """Each bad input exits 1 with one error line naming what is wrong (the
    encode case raised a bare KeyError); the table matches the CI step."""
    c5 = write_c5(tmp_path)
    (tmp_path / "gf257.rg").write_text("field 257 1\nvertices a b\nedge a b 1\n")
    (tmp_path / "truncated.term").write_text(
        "(prod [1 1; 0] [1 1; 1] [1 1; 1] (const 1) (const 1)")
    (tmp_path / "stray.nwk").write_text("(v1,(v2,(v3,(v4,zz))));\n")
    (tmp_path / "refield.rg").write_text("field 2 1\nvertices a b\nedge a b 1\n"
                                         "field 3 1\n")
    cases = [
        (["encode", "--from", "directed", "--arcs", "a>b", "--vertices", "b"],
         "unknown vertex 'a'"),
        (["encode", "--from", "undirected", "--edges", "a-b", "--vertices", "a"],
         "unknown vertex 'b'"),
        (["cut", "--input", str(c5), "--set", "v1,zz"], "unknown vertex 'zz'"),
        (["term", "eval", "--input", str(tmp_path / "truncated.term"),
          "--field", "2", "1", "--sigma", "id"], "unexpected end of term"),
        (["cut", "--input", str(tmp_path / "gf257.rg"), "--set", "a",
          "--kind", "bicutrk"],
         "matrices over GF(257) (order > 256) are unsupported"),
        (["term", "compile", "--input", str(c5), "--layout",
          str(tmp_path / "stray.nwk")], "layout leaf 'zz' is not a graph vertex"),
        (["width", "--input", str(tmp_path / "refield.rg")],
         "line 4: repeated field declaration"),
        (["obstructions", "--field", "2", "1", "--sigma", "id", "--relation",
          "pivot", "--k", "-1", "--max-n", "3", "--out", str(tmp_path / "obs")],
         "width bound k = -1 must be >= 0"),
        (["obstructions", "--field", "2", "1", "--sigma", "id", "--relation",
          "pivot", "--k", "1", "--max-n", "-3", "--out", str(tmp_path / "obs")],
         "obstruction size bound max_n = -3 must be >= 0"),
    ]
    for p, k in [(1000000000000000003, 1), (2, 1000000000), (3, 10000000),
                 (2, 100000000)]:
        header = tmp_path / f"gf{p}-{k}.rg"
        header.write_text(f"field {p} {k}\nvertices a b\n")
        cases.append((["width", "--input", str(header)],
                      f"field order {p}^{k} exceeds the bound 65536"))
    for argv, error in cases:
        assert run(capsys, *argv) == (1, "", f"error: {error}\n"), argv
    env = dict(os.environ)
    src = str(Path(rankw.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rankw", *cases[0][0]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: unknown vertex 'a'\n")


def test_file_errors_are_domain_errors(tmp_path, capsys):
    """A file that cannot be read or written, or an output directory that
    cannot be made, exits 1 with one error line and prints nothing else."""
    (tmp_path / "plain").write_text("")
    cases = [
        (["width", "--input", str(tmp_path / "missing.rg")], "missing.rg"),
        (["encode", "--from", "undirected", "--edges", "a-b", "--out",
          str(tmp_path / "nodir" / "x.rg")], "x.rg"),
        (["obstructions", "--field", "2", "1", "--sigma", "id", "--relation",
          "pivot", "--k", "0", "--max-n", "2", "--out",
          str(tmp_path / "plain" / "obs")], "obs"),
    ]
    for argv, name in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert name in err, err
    assert not (tmp_path / "nodir").exists()


def test_jobs_flag_removed(tmp_path):
    """--jobs was a no-op and is gone: passing it is a usage error."""
    path = write_c5(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "4", "width", "--input", str(path)])
    assert exc.value.code == 2


def test_python_m_rankw(tmp_path):
    """`python -m rankw` runs the same command line."""
    path = write_c5(tmp_path)
    env = dict(os.environ)
    src = str(Path(rankw.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rankw", "width", "--input",
                           str(path)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "width 2"


def test_repeated_main_matches_fresh_processes(tmp_path, monkeypatch):
    """main builds its parser once per process: each command, called twice
    in a row in one process, gives the stdout, stderr and exit code of a
    fresh `python -m rankw`, help and usage errors after a success too."""
    write_c5(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
    env = dict(os.environ)
    src = str(Path(rankw.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = [["width", "--input", "c5.rg", "--json", "--stats"],
             ["width", "--input", "c5.rg", "--k", "1"],
             ["term", "compile", "--input", "c5.rg"],
             ["--help"],
             ["width", "--help"],
             ["width", "--input", "c5.rg", "--k", "1_0"],
             ["cut", "--input", "missing.rg", "--set", "a"]]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    for argv in cases:
        proc = subprocess.run([sys.executable, "-m", "rankw", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        fresh = proc.returncode, proc.stdout, proc.stderr
        assert in_process(argv) == fresh == in_process(argv), argv
    assert [in_process(argv)[0] for argv in cases] == [0, 0, 0, 0, 0, 2, 1]


NUMPY_FREE_RUN = r"""
import contextlib, io, sys
from rankw.cli import main

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()

cli("encode", "--from", "undirected", "--edges", "a-b,b-c,c-d,d-e,e-a", "--out", "c5.rg")
cli("encode", "--from", "directed", "--arcs", "a>b,b>c,c>a", "--out", "d.rg")
cli("encode", "--from", "oriented", "--arcs", "a>b,b>c", "--out", "o.rg")
assert cli("width", "--input", "c5.rg").startswith("width 2")
assert cli("width", "--input", "d.rg", "--param", "birank").startswith("width ")
assert cli("width", "--input", "c5.rg", "--k", "1") == "width > 1\n"
assert cli("cut", "--input", "c5.rg", "--set", "a,b") == "2\n"
assert cli("cut", "--input", "c5.rg", "--set", "a,b", "--kind", "bicutrk") == "4\n"
cli("transform", "--input", "o.rg", "--local", "b", "--lambda", "1")
cli("transform", "--input", "c5.rg", "--pivot", "a,b")
cli("term", "compile", "--input", "c5.rg", "--out", "r.term")
cli("term", "compile", "--input", "d.rg", "--param", "birank", "--out", "b.term")
assert cli("term", "eval", "--input", "r.term", "--field", "2", "1", "--sigma", "id")
assert cli("term", "eval", "--input", "b.term", "--field", "2", "2")
cli("obstructions", "--field", "2", "1", "--sigma", "id", "--relation",
    "sigma-vertex", "--k", "1", "--max-n", "5", "--out", "obs")
assert cli("cut", "--input", "c5.rg", "--set", "a,b", "--kind", "lambda") == "5\n"
assert cli("cut", "--input", "d.rg", "--set", "a", "--kind", "lambda") == "3\n"
assert "numpy" not in sys.modules, "numpy loaded on the run path"
print("ok")
"""


def test_run_path_does_not_import_numpy(tmp_path):
    """width, cut (every kind), transform, encode, term and obstructions
    run without numpy; only the tests' oracles and the `adj` and `np_table`
    properties load it."""
    env = dict(os.environ)
    src = str(Path(rankw.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_numpy_is_imported_only_by_the_array_views():
    """In src/, numpy is imported only inside ColoredGraph.adj and
    Sesquimorphism.np_table; the numpy oracles live in the tests."""
    where = set()
    for path in sorted(Path(rankw.__file__).resolve().parent.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            scope, node = stack.pop()
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                where.add(scope)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}"
            stack.extend((scope, child) for child in ast.iter_child_nodes(node))
    assert where == {"graphs.ColoredGraph.adj", "fields.Sesquimorphism.np_table"}
