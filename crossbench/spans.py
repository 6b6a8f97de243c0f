"""Spans around the program's public functions, recorded from outside it.

``Tracer.installed()`` replaces every reference the ``reflectedwalk``
package holds to each traced function (its home module's attribute and any
name another module imported) with a wrapper, and restores them on exit.
Each span records its name, op, pass, parent span, start, end, the number
of z points it was given and the exception it raised.  Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "dist": ("make_family", "walk_pmf"),
    "oracle": ("lindley_dp", "functional_equation_check", "numerator_check"),
    "series": ("spitzer_series", "series_exp"),
    "kernel": ("find_kernel_roots", "product_eval", "root_logresidue_check"),
    "contour": ("choose_outer_radius", "pollaczek_eval", "verify_coeff_identity"),
    "cli": ("parse_config", "run", "render_csv"),
}
# functions whose third positional argument holds the z points
POINT_ARG = {"kernel.product_eval": 2, "contour.pollaczek_eval": 2}
ERROR_COUNTED = ("kernel.find_kernel_roots", "contour.choose_outer_radius")

SPAN_FIELDS = ("name", "op", "pass", "parent", "start", "end", "points", "error")


def layer_metric_names() -> list:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            names += [f"{module}.{func}.s", f"{module}.{func}.calls"]
    names += [f"{name}.points" for name in POINT_ARG]
    names += ["kernel.product_eval.rejected"]
    names += [f"{name}.errors" for name in ERROR_COUNTED]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # lists in SPAN_FIELDS order
        self._open = []  # indices of the spans now running, innermost last
        self.op = None
        self.pass_no = None

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        point_arg = POINT_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = int(np.size(args[point_arg])) if point_arg is not None else None
            span = [name, self.op, self.pass_no, open_[-1] if open_ else None,
                    0.0, 0.0, points, None]
            open_.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[5] = time.perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Trace every function of LAYERS while the block runs."""
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "reflectedwalk" or key.startswith("reflectedwalk.")]
        undo = []
        try:
            for module, funcs in LAYERS.items():
                home = sys.modules[f"reflectedwalk.{module}"]
                for func in funcs:
                    original = getattr(home, func)
                    wrapped = self._wrap(f"{module}.{func}", original)
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                undo.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def layer_metrics(self, passes) -> dict:
        """Median over ``passes`` of each function's per-pass self time and
        counts; a span's self time is its duration less its children's."""
        child_time = [0.0] * len(self.spans)
        for name, op, p, parent, start, end, points, error in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_pass = {p: dict.fromkeys(layer_metric_names(), 0.0) for p in passes}
        for i, (name, op, p, parent, start, end, points, error) in enumerate(self.spans):
            if p not in per_pass:
                continue
            row = per_pass[p]
            row[f"{name}.s"] += end - start - child_time[i]
            row[f"{name}.calls"] += 1
            if points is not None and error is None:
                row[f"{name}.points"] += points
            if name == "kernel.product_eval" and error == "ValueError":
                row["kernel.product_eval.rejected"] += points
            if name in ERROR_COUNTED and error is not None:
                row[f"{name}.errors"] += 1
        return {
            key: statistics.median(row[key] for row in per_pass.values())
            for key in layer_metric_names()
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(SPAN_FIELDS, span))}) + "\n")
