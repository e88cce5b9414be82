"""Per-layer spans and counters around toricsums, recorded from outside it.

`Tracer.install()` wraps the public functions and methods of each layer
where the calling modules see them: a function imported under several names
(`from .gkz import companion_matrix as gkz_companion_matrix`, the package
re-exports) is replaced under every name that refers to it. Spans are kept
in memory as [name, parent index, start, end]; counters are plain integers.
The wrappers stay in place for the life of the process, so install the
tracer only in a process that runs nothing else.

A span's self time is its duration minus the durations of its direct child
spans. Every `_s` metric of `layer_metrics` is a self time, so the layer
times of one job add up to its traced wall time with no overlap.
"""

import functools
import sys
import time
from collections import Counter

import toricsums.cli
import toricsums.ffield
import toricsums.frobenius
import toricsums.gkz
import toricsums.lfunction
import toricsums.ratfunc
import toricsums.reduction

_cli = toricsums.cli
_ff = toricsums.ffield
_frob = toricsums.frobenius

# span name -> functions and methods it wraps
SPANS = {
    "cli.main": [_cli.main],
    "cli.handler": [f for n, f in vars(_cli).items() if n.startswith("cmd_")],
    "cli.render": [_cli.piadic_json, _cli.cyclo_json, _cli.ratfunc_json,
                   _cli.poly_json, _cli.polygon_json],
    "ffield.tower": [_ff.FieldTower.__init__],
    "ffield.generator": [_ff.FieldTower.generator],
    "ffield.log": [_ff.FieldTower.log],
    "ffield.embed": [_ff.FieldTower.embed_subfield_code],
    "lfunction.exp_sum": [toricsums.lfunction.exp_sum],
    "lfunction.l_polynomial": [toricsums.lfunction.l_polynomial],
    "lfunction.newton_polygon": [toricsums.lfunction.newton_polygon],
    "reduction.reduce_to_basis": [toricsums.reduction.reduce_to_basis],
    "reduction.verify_certificate": [toricsums.reduction.verify_certificate],
    "reduction.flag_representatives": [toricsums.reduction.flag_representatives],
    "ratfunc.poly_gcd": [toricsums.ratfunc.poly_gcd],
    "ratfunc.solve_linear": [toricsums.ratfunc.solve_linear],
    "gkz.companion_matrix": [toricsums.gkz.companion_matrix],
    "frobenius.frobenius_at_point": [_frob.frobenius_at_point],
    "frobenius.frobenius_series": [_frob.frobenius_series],
    "frobenius.flag_data": [_frob.flag_data],
    "frobenius.splitting_coefficients": [_frob.splitting_coefficients],
    "frobenius.reciprocal_char_poly": [_frob.reciprocal_char_poly],
    "frobenius.horizontality_residual": [_frob.horizontality_residual],
}

# counter name -> functions and methods whose calls it counts
CALL_COUNTERS = {
    "ffield.mul_calls": [_ff.FieldTower.mul],
    "frobenius.piadic_mul_calls": [_frob.PiAdic.__mul__],
    "frobenius.piadic_inverse_calls": [_frob.PiAdic.inverse],
}

# metric -> span names whose self times it sums
SELF_TIMES = {
    "cli.handler_s": ["cli.handler"],
    "cli.render_s": ["cli.main", "cli.render"],
    "ffield.tower_s": ["ffield.tower"],
    "ffield.generator_s": ["ffield.generator"],
    "ffield.log_s": ["ffield.log"],
    "ffield.embed_s": ["ffield.embed"],
    "lfunction.exp_sum_self_s": ["lfunction.exp_sum"],
    "lfunction.l_polynomial_s": ["lfunction.l_polynomial"],
    "lfunction.newton_polygon_s": ["lfunction.newton_polygon"],
    "reduction.reduce_to_basis_s": ["reduction.reduce_to_basis"],
    "reduction.verify_certificate_s": ["reduction.verify_certificate"],
    "reduction.flag_representatives_s": ["reduction.flag_representatives"],
    "ratfunc.poly_gcd_s": ["ratfunc.poly_gcd"],
    "ratfunc.solve_linear_s": ["ratfunc.solve_linear"],
    "gkz.companion_matrix_s": ["gkz.companion_matrix"],
    "frobenius.frobenius_at_point_s": ["frobenius.frobenius_at_point"],
    "frobenius.frobenius_series_s": ["frobenius.frobenius_series"],
    "frobenius.flag_data_s": ["frobenius.flag_data"],
    "frobenius.splitting_coefficients_s": ["frobenius.splitting_coefficients"],
    "frobenius.reciprocal_char_poly_s": ["frobenius.reciprocal_char_poly"],
    "frobenius.horizontality_residual_s": ["frobenius.horizontality_residual"],
}

# metric -> span name whose calls it counts
SPAN_CALLS = {
    "lfunction.exp_sum_calls": "lfunction.exp_sum",
    "reduction.calls": "reduction.reduce_to_basis",
    "ratfunc.poly_gcd_calls": "ratfunc.poly_gcd",
}

# counts with their unit; all repeat exactly from run to run
COUNTS = {
    "ffield.mul_calls": "count",
    "lfunction.exp_sum_calls": "count",
    "lfunction.histogram_cells": "count",
    "reduction.calls": "count",
    "reduction.steps": "count",
    "ratfunc.poly_gcd_calls": "count",
    "frobenius.piadic_mul_calls": "count",
    "frobenius.piadic_inverse_calls": "count",
    "frobenius.cutoff": "degree",
    "frobenius.nu0": "pi-digits",
    "frobenius.margin": "pi-digits",
}


def _replace_everywhere(orig, new):
    """Point every toricsums module attribute and class attribute that is
    `orig` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name != "toricsums" and not name.startswith("toricsums."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
            elif isinstance(value, type) and value.__module__.startswith("toricsums"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, new)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        counts = self.counts

        def exp_sum_done(args, result):
            params, p, lam_code, k = args[:4]
            atilde = args[4] if len(args) > 4 else 1
            counts["lfunction.histogram_cells"] += (p ** (atilde * k) - 1) ** 2

        def reduce_done(args, cert):
            counts["reduction.steps"] += cert.steps

        def frobenius_done(args, result):
            counts["frobenius.cutoff"] += result.cutoff
            counts["frobenius.nu0"] += result.nu0
            counts["frobenius.margin"] += result.margin

        after = {
            "lfunction.exp_sum": exp_sum_done,
            "reduction.reduce_to_basis": reduce_done,
            "frobenius.frobenius_at_point": frobenius_done,
            "frobenius.frobenius_series": frobenius_done,
        }
        for name, fns in SPANS.items():
            for fn in fns:
                _replace_everywhere(fn, self._span(name, fn, after.get(name)))
        for name, fns in CALL_COUNTERS.items():
            for fn in fns:
                _replace_everywhere(fn, self._counted(name, fn))

    def self_times(self):
        """Span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, _, start, end), covered in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def layer_metrics(self):
        """Every per-layer metric, zero for layers the jobs did not reach."""
        table = self.self_times()
        out = {m: sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)
               for m, names in SELF_TIMES.items()}
        out.update({m: self.counts[m] for m in COUNTS})
        out.update({m: table[span][0] if span in table else 0 for m, span in SPAN_CALLS.items()})
        return out
