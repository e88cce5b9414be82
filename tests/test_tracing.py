"""The benchmark tracer (perfbench/tracing.py) looks up the toricsums
functions and methods it wraps by name when it is imported, and its hooks
read fields of their results. Loading it here makes a refactor that drops or
renames one of them fail the suite instead of breaking
`perfbench/run.py --trace 1`.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from toricsums.ffield import Fp
from toricsums.family import FamilyParams
from toricsums.lfunction import exp_sum
from toricsums.reduction import reduce_to_basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_wrapped_object():
    tracing = load_tracing()
    for name, fns in {**tracing.SPANS, **tracing.CALL_COUNTERS}.items():
        assert fns and all(callable(f) for f in fns), name
    for metric, spans in tracing.SELF_TIMES.items():
        assert set(spans) <= set(tracing.SPANS), metric


def install_collected(tracing):
    """Install a Tracer, but collect its wrappers instead of patching them in,
    so this process keeps the untraced package. Returns (tracer, wrappers)."""
    wrappers = {}
    tracing._replace_everywhere = lambda orig, new: wrappers.setdefault(orig, new)
    tracer = tracing.Tracer()
    tracer.install()
    return tracer, wrappers


def test_frobenius_hook_reads_a_point_result():
    tracing = load_tracing()
    tracer, wrappers = install_collected(tracing)
    traced = wrappers[tracing._frob.frobenius_at_point]
    fp = traced(FamilyParams(1, 1, 2, 1), 3, 1, pi_digits=4)
    assert [tracer.counts[f"frobenius.{f}"] for f in ("cutoff", "nu0", "margin")] == [
        fp.cutoff, fp.nu0, fp.margin]
    assert [s[0] for s in tracer.spans] == ["frobenius.frobenius_at_point"]


def test_reduce_hook_counts_the_certificate_steps():
    tracing = load_tracing()
    tracer, wrappers = install_collected(tracing)
    traced = wrappers[reduce_to_basis]
    # the reduce-prime golden's class: three of its pending monomials cancel
    # mod 5 after they are queued, and those are not steps
    cert = traced({(-4, 4): Fp(5, 1)}, FamilyParams(1, 1, 1, 2), 1, Fp(5, 3))
    assert tracer.counts["reduction.steps"] == cert.steps == 43
    assert [s[0] for s in tracer.spans] == ["reduction.reduce_to_basis"]


def test_reduce_hook_counts_the_steps_of_a_pass():
    # a list of classes is reduced in one call, and the hook counts the
    # steps of that one pass
    tracing = load_tracing()
    tracer, wrappers = install_collected(tracing)
    traced = wrappers[reduce_to_basis]
    classes = [{(-4, 4): Fp(5, 1)}, {(3, -2): Fp(5, 2)}]
    result = traced(classes, FamilyParams(1, 1, 1, 2), 1, Fp(5, 3))
    assert tracer.counts["reduction.steps"] == result.steps > 43
    assert [s[0] for s in tracer.spans] == ["reduction.reduce_to_basis"]


def test_exp_sum_hook_reads_the_field_from_the_arguments():
    # the hook reads p, k and atilde by position: S_1 over F_9 is 8 x 8 cells
    tracing = load_tracing()
    tracer, wrappers = install_collected(tracing)
    traced = wrappers[exp_sum]
    traced(FamilyParams(1, 1, 1, 1), 3, 5, 1, 2)
    assert tracer.counts["lfunction.histogram_cells"] == (9 - 1) ** 2
    assert [s[0] for s in tracer.spans] == ["lfunction.exp_sum"]


def test_a_traced_main_calls_the_traced_handler():
    # cli.main looks its handler up when it builds the command's parser, after
    # the tracer has replaced the cmd_* functions. The tracer patches for the
    # life of the process, so it runs in a process of its own.
    script = f"""
import contextlib, importlib.util, io, json
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = tracing._cli.main(["connection", "--family", "1,1,1,1"])
print(json.dumps([code, [[s[0], tracer.spans[s[1]][0] if s[1] >= 0 else None]
                         for s in tracer.spans]]))
"""
    src = str(TRACING.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, spans = json.loads(proc.stdout)
    assert code == 0
    assert ["cli.main", None] in spans
    assert ["cli.handler", "cli.main"] in spans
