"""Span tracer that times calls into qsympoly's public functions from outside.

``install`` replaces each boundary function by a timing wrapper in every
loaded ``qsympoly`` module that holds a reference to it (the defining
module, the modules that imported the name, and the package itself), so
calls made through any of those names are recorded and no library source
is edited.  ``uninstall`` puts the originals back.

Spans are only recorded while an operation is open (``begin_op`` ..
``end_op``); calls made by the benchmark's own output checks fall outside
and cost one attribute test.  A span is one entry in each of five compact
arrays: name index, start, end, parent span index (-1 for the operation's
root span) and operation id.  They stay in memory until ``write`` saves
them.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# module -> public functions timed at the module boundary.  q_shifted_factorial
# and q_number run 10^4+ times per operation and stay unwrapped, so their
# time lands in their callers' self time.
BOUNDARIES = {
    "qcore": ("q_shifted_factorial_inf", "q_binomial", "basic_hypergeometric"),
    "jackson": ("q_integral_symmetric",),
    "sympoly": ("monic_ladder", "recurrence_C", "eval_explicit", "eval_hypergeometric",
                "ode_residual_terms"),
    "weights": ("weight_star", "weight_general", "weight_grid_report",
                "boundary_vanishing_check"),
    "families": ("orthogonality_matrix", "norm_triple_report"),
    "classical": ("limit_convergence_report", "continuous_weight"),
    "cli": ("main",),
}

ROOT = "op"  # name of the per-operation root span
COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{f}" for m, fs in BOUNDARIES.items() for f in fs]
        self.name, self.start, self.end, self.parent, self.op_id = (
            array(code) for _, code in COLUMNS)
        self.stack: list = []
        self.op = None
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name_idx: int) -> int:
        idx = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._root = self._open(0)

    def end_op(self) -> None:
        self._close(self._root)
        self.op = None

    def _wrap(self, name_idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name_idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import qsympoly  # noqa: F401  (loads every submodule)

        loaded = [m for n, m in sys.modules.items() if n == "qsympoly" or n.startswith("qsympoly.")]
        for module, funcs in BOUNDARIES.items():
            home = sys.modules[f"qsympoly.{module}"]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrap(self.names.index(f"{module}.{func}"), orig)
                for mod in loaded:
                    if getattr(mod, func, None) is orig:
                        setattr(mod, func, wrapper)
                        self._restore.append((mod, func, orig))

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._restore):
            setattr(mod, func, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def records(self):
        """(name index, start, end, parent, op id) per span, in opening order."""
        return zip(self.name, self.start, self.end, self.parent, self.op_id)

    def self_times(self) -> array:
        """Per span: its duration minus the durations of its direct children."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[i] - self.start[i]
        return out

    def write(self, stem: str) -> None:
        """Save the spans as <stem>.bin, the five columns one after another,
        and their layout as <stem>.json."""
        with open(stem + ".bin", "wb") as fh:
            for column in (self.name, self.start, self.end, self.parent, self.op_id):
                column.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self), "columns": COLUMNS, "names": self.names}, fh)
            fh.write("\n")
