"""Tests of the benchmark's own checks: the oracle arithmetic against brute
force, and every output check against outputs that have been tampered with.

    PYTHONPATH=src python -m pytest bench/test_bench_checks.py -q
"""

import copy
import dataclasses
import itertools
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def brute_rank(F, rows):
    """log_q of the size of the row space."""
    if not rows:
        return 0
    span = set()
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = [0] * len(rows[0])
        for c, r in zip(coeffs, rows):
            v = [F.add[x][F.mul[c][y]] for x, y in zip(v, r)]
        span.add(tuple(v))
    r = 0
    while F.q ** r < len(span):
        r += 1
    return r


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_axioms(q):
    F = oracle.FIELDS[q]
    els = range(q)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
        assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
        assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
    for a in range(1, q):
        assert F.mul[a][F.inv[a]] == 1
        assert F.add[a][F.neg[a]] == 0
        s = F.sigma[a]
        assert F.sigma[s] == a                     # an involution
    if q == 4:
        assert F.mul[2][2] == 3 and F.mul[2][3] == 1   # a^2, a^3 = 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_matches_brute_force(q):
    F = oracle.FIELDS[q]
    rng = random.Random(q)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(q) for _ in range(c)] for _ in range(r)]
        assert F.rank(rows) == brute_rank(F, rows)


def adj_of(edges, n):
    a = [[0] * n for _ in range(n)]
    for u, v in edges:
        a[u][v] = a[v][u] = 1
    return a


def test_exact_width_known_values():
    width = lambda a: oracle.exact_width(oracle.Cuts(2, a, "cutrk"))  # noqa: E731
    assert width(workloads.path_adj(8)) == 1
    assert width(workloads.path_adj(5, cycle=True)) == 2
    assert width(workloads.path_adj(9, cycle=True)) == 2
    assert width(adj_of(itertools.combinations(range(6), 2), 6)) == 1   # K6
    assert width(workloads.grid_adj(3, 3)) == 2
    assert width(workloads.grid_adj(4, 4)) == 3
    sym = workloads.path_adj(7, cycle=True)
    assert oracle.exact_width(oracle.Cuts(2, sym, "bicutrk")) == 4


def test_exact_width_matches_program():
    rankw = pytest.importorskip("rankw")
    rng = random.Random(5)
    for family in workloads.FAMILIES:
        q, kind = workloads.FAMILIES[family][1], workloads.cut_kind(family)
        for n in (3, 5, 7):
            adj = workloads.random_adj(family, rng, n)
            G = rankw.parse_graph(workloads.graph_text(family, adj))
            ours = oracle.exact_width(oracle.Cuts(q, adj, kind))
            assert ours == rankw.width_exact(G, rankw.CutFunction(G, kind)).width


def test_newick_cuts():
    leaves, cuts = oracle.newick_cuts("(a,((b,c),(d,e)));")
    assert leaves == ["a", "b", "c", "d", "e"]
    assert frozenset("bc") in cuts and frozenset("bcde") in cuts
    assert frozenset("abcde") not in cuts
    with pytest.raises(ValueError):
        oracle.newick_cuts("(a,(b,a));")


def test_gf2_classes():
    c5, c6 = workloads.path_adj(5, cycle=True), workloads.path_adj(6, cycle=True)
    assert len(oracle.gf2_class([c5], "sigma-vertex")) == 3     # C5, house, gem
    pivot = oracle.gf2_class([c5, c6], "pivot")
    assert oracle.canonical(c5) in pivot and oracle.canonical(c6) in pivot
    assert oracle.canonical(workloads.path_adj(6)) not in pivot


# -- the output checks reject tampered outputs ------------------------------------------

@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    rankw = pytest.importorskip("rankw")
    import importlib
    m = SimpleNamespace(rankw=rankw, **{n: importlib.import_module(f"rankw.{n}")
                                        for n in ("cli", "graphs", "layouts", "terms",
                                                  "transform")})
    return workloads.Context(m, tmp_path_factory.mktemp("work"))


def run_checked(op):
    out = op.run(*op.prepare())
    op.check(out)
    return out


@pytest.mark.parametrize("family", ["gf2", "bi2", "gf4", "gf3"])
def test_exact_check(ctx, family):
    adj = workloads.random_adj(family, random.Random(family), 7)
    q = workloads.FAMILIES[family][1]
    w = oracle.exact_width(oracle.Cuts(q, adj, workloads.cut_kind(family)))
    op = workloads.exact_op(ctx, f"t/{family}", family, adj, w)
    res, L, term = run_checked(op)
    with pytest.raises(CheckError):
        op.check((dict(res, width=w + 1), L, term))
    bad_cuts = copy.deepcopy(res)
    bad_cuts["cuts"][0]["value"] += 1
    with pytest.raises(CheckError):
        op.check((bad_cuts, L, term))
    other = workloads.random_adj(family, random.Random(family + "x"), 7)
    other_op = workloads.exact_op(ctx, f"t/{family}x", family, other, lambda: 0)
    with pytest.raises(CheckError):            # a term of another graph
        op.check((res, L, other_op.run()[2]))


def test_decide_check(ctx):
    c6 = workloads.path_adj(6, cycle=True)
    yes = workloads.decide_op(ctx, "t/yes", "gf2", c6, 2, 2)
    text = run_checked(yes)
    with pytest.raises(CheckError):
        yes.check(json.dumps({"at_most": 2, "witness": None}))
    no = workloads.decide_op(ctx, "t/no", "gf2", c6, 1, 2)
    run_checked(no)
    with pytest.raises(CheckError):            # a "yes" whose witness has a cut of 2
        no.check(text.replace('"at_most": 2', '"at_most": 1'))


def test_failed_command_raises(ctx):
    path = ctx.workdir / "nosigma.rg"                 # rank widths need a sigma
    path.write_text("field 2 1\nvertices a b\nedge a b 1\nedge b a 1\n")
    with pytest.raises(workloads.OperationFailed, match="exit code 1"):
        ctx.cli(["width", "--input", str(path), "--param", "rank", "--json"])


def test_orbit_check(ctx):
    c5 = workloads.path_adj(5, cycle=True)
    op = workloads.orbit_op(ctx, "t/orbit", "gf2", "sigma-vertex", c5, 3)
    orbit = run_checked(op)
    with pytest.raises(CheckError):
        op.check(orbit[:-1])
    p5 = ctx.graph("gf2", workloads.path_adj(5))
    with pytest.raises(CheckError):            # same size, another cut-rank function
        op.check(orbit[:-1] + [p5])


def test_minor_check(ctx):
    tree = workloads.path_adj(7)
    op = workloads.minor_op(ctx, "t/minor", tree)
    res = run_checked(op)
    assert not res.found and res.complete
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(res, found=True))
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(res, complete=False))


def test_obstruction_check(ctx):
    op = workloads.obstruction_op(ctx, "t/obs", 2, "sigma-vertex", 5,
                                  [workloads.path_adj(5, cycle=True)])
    out = run_checked(op)
    path = ctx.workdir / "t_obs" / json.loads(out[0])["files"][0]
    lines = path.read_text().splitlines()
    u, v = next(ln.split()[1:3] for ln in lines if ln.startswith("edge"))
    path.write_text("\n".join(ln for ln in lines if not ln.startswith(
        (f"edge {u} {v} ", f"edge {v} {u} "))) + "\n")   # one edge fewer
    with pytest.raises(CheckError):
        op.check(out)
