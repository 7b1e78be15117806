"""Benchmark of `rankw`: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload exact|decide|closure --seed N \
        --seconds S --trace 0|1

A closed loop: one caller runs the workload's fixed list of operations in
passes, each operation starting after the previous one returns, and starts
another pass only while a whole pass still fits in S seconds.  Every output
is checked (see workloads.py); checks, input copies and a `gc.collect()`
before each operation stay outside the timed region.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics.  With --trace 1 untraced passes alternate with passes under the
tracer (tracer.py), so both see the same machine speed, and the line holds
the per-layer metrics.  Details and reference figures are in bench/README.md.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402

SETUP_ROUNDS = 5
MODULES = ("matrix", "cutrank", "graphs", "layouts", "terms", "transform", "cli")


def import_program():
    """Import rankw from this checkout, afresh: every earlier import of its
    modules is dropped, so module code and field tables are built again."""
    for name in [n for n in sys.modules if n == "rankw" or n.startswith("rankw.")]:
        del sys.modules[name]
    rankw = importlib.import_module("rankw")
    if Path(rankw.__file__).resolve().parent != SRC / "rankw":
        raise ImportError(f"rankw imported from {rankw.__file__}, not {SRC}")
    m = SimpleNamespace(rankw=rankw, **{n: importlib.import_module(f"rankw.{n}")
                                        for n in MODULES})
    for p, k in ((2, 1), (3, 1), (2, 2)):
        m.rankw.field_make(p, k)
    return m


def setup(workload, seed, workdir, t_start):
    """One set-up round; returns (seconds, context, operations)."""
    ctx = workloads.Context(import_program(), workdir)
    ops = workloads.WORKLOADS[workload](ctx, seed)
    warm = workloads.warmup_op(ctx, workload)
    warm.run(*warm.prepare())
    return time.perf_counter() - t_start, ctx, ops


class Runner:
    """Timed passes with output checks."""

    def __init__(self, ops):
        self.ops = ops
        self.verified = {}       # op name -> digest of a verified output
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def one_pass(self, on_op_end=None):
        times = []
        for op in self.ops:
            args = op.prepare()
            gc.collect()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run(*args)
            except Exception:
                dt = time.perf_counter() - t0
                self.failed += 1
                print(f"FAILED {op.name}", file=sys.stderr)
                traceback.print_exc()
                out = None
            else:
                dt = time.perf_counter() - t0
            if on_op_end is not None:
                on_op_end()
            times.append(dt)
            if out is not None:
                self.check(op, out)
        return times

    def check(self, op, out):
        try:
            d = op.digest(out)
            if self.verified.get(op.name) != d:
                op.check(out)
                self.verified[op.name] = d
        except Exception as exc:
            self.correct = False
            print(f"CHECK FAILED {op.name}: {exc!r}", file=sys.stderr)

    def run_for(self, seconds, one_round=None):
        """Rounds (by default one pass each) while one more still fits;
        returns what each round returned."""
        one_round = one_round or self.one_pass
        rounds = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            rounds.append(one_round())
            if time.perf_counter() - t0 + (time.perf_counter() - r0) > seconds:
                return rounds


def end_to_end(ops, passes, setup_times):
    """Medians over the passes of a run; see the metric table in README.md."""
    def field_sum(p, field):
        return sum(t for op, t in zip(ops, p) if op.field == field)

    med = statistics.median
    values = {
        "setup_s": (med(setup_times), "s"),
        "pass_s": (med(sum(p) for p in passes), "s"),
        "op_ms_p50": (1e3 * med(med(p[i] for p in passes) for i in range(len(ops))),
                      "ms"),
        "gf2_s": (med(field_sum(p, "gf2") for p in passes), "s"),
        "gf4_s": (med(field_sum(p, "gf4") for p in passes), "s"),
        "gf3_s": (med(field_sum(p, "gf3") for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rankw" / "__init__.py").is_file():
        print(f"error: no rankw sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        t_start = T_PROCESS
        for _ in range(SETUP_ROUNDS):
            shutil.rmtree(workdir, ignore_errors=True)
            dt, ctx, ops = setup(args.workload, args.seed, workdir, t_start)
            setup_times.append(dt)
            t_start = time.perf_counter()
        runner = Runner(ops)
        if args.trace:
            import tracer
            tr = tracer.Tracer(ctx.m)

            def traced_pass():
                tr.install()
                try:
                    return runner.one_pass(on_op_end=tr.fold)
                finally:
                    tr.uninstall()

            plain, traced = zip(*runner.run_for(
                args.seconds, lambda: (runner.one_pass(), traced_pass())))
            overhead = (statistics.median(map(sum, traced))
                        - statistics.median(map(sum, plain)))
            metrics = tr.metrics(len(traced), overhead)
            (work / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(metrics, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        else:
            metrics = end_to_end(ops, runner.run_for(args.seconds), setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                         "failed": runner.failed, "metrics": metrics}, sort_keys=True)
    (work / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        result + "\n", encoding="utf-8")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
