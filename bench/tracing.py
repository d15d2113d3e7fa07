"""Per-layer spans and counters, installed from outside the package by
rebinding its public functions.

A function imported by name is a separate binding in every importing
module (``cli``, ``suites`` and ``center`` each hold their own
``center_basis``), so ``rebind`` replaces the object in every loaded
``cyclohecke`` module, not just where it is defined. Methods are patched
on their class, which every caller shares.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


def rebind(original, replacement):
    """Replace every module-level binding of ``original`` in the package."""
    for name, module in list(sys.modules.items()):
        if name != "cyclohecke" and not name.startswith("cyclohecke."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Inclusive and self time per span name, plus named counters.

    Inclusive time counts only the outermost call of a name, so a span
    nested in itself is not counted twice; self time is a call's duration
    minus the durations of the traced calls made directly inside it.
    """

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._depth = Counter()
        self._stack = []  # child time accumulated per open span

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a timed span; ``before(args)`` and
        ``after(args, result)`` update counters outside the timed call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self._depth[name] += 1
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                self.counts[name + "_calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap fn so that each call increments a counter."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _coeff_bits(x):
    """Largest numerator or denominator bit size in an exact scalar."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return max((_coeff_bits(c) for c in coeffs), default=0)
    return 0


def install():
    """Wrap every traced layer of an imported package; returns the
    Tracer collecting their spans and counters."""
    from cyclohecke import center, hecke, ktheory, linalg, rings

    t = Tracer()
    counts = t.counts

    def wrap_function(module, attr, name, **hooks):
        original = getattr(module, attr)
        rebind(original, t.span(name, original, **hooks))

    def wrap_method(cls, attr, name, **hooks):
        setattr(cls, attr, t.span(name, getattr(cls, attr), **hooks))

    ctx_cls = hecke.AlgebraContext
    wrap_method(ctx_cls, "__init__", "hecke.build")
    wrap_function(hecke, "check_relations", "hecke.selftest")

    def multiply_words(args):
        counts["hecke.multiply_words"] += len(args[1].terms)
    wrap_method(ctx_cls, "multiply", "hecke.multiply", before=multiply_words)
    wrap_method(ctx_cls, "invert", "hecke.invert")

    def kernel_input(args):
        matrix, domain = args[0], args[1]
        counts["linalg.kernel_entries"] += len(matrix) * len(matrix[0]) \
            if matrix else 0
        counts["linalg.kernel_nnz"] += sum(
            1 for row in matrix for x in row if not domain.is_zero(x))

    def kernel_output(args, basis):
        bits = max((_coeff_bits(x) for vec in basis for x in vec), default=0)
        t.maxima["linalg.coeff_bits_max"] = max(
            t.maxima["linalg.coeff_bits_max"], bits)
    wrap_function(linalg, "kernel_basis", "linalg.kernel",
                  before=kernel_input, after=kernel_output)

    def solve_input(args):
        matrix = args[0]
        counts["linalg.solve_entries"] += len(matrix) * len(matrix[0]) \
            if matrix else 0
    wrap_function(linalg, "solve_linear", "linalg.solve", before=solve_input)

    def rowspace_result(args, grew):
        counts["linalg.rowspace_useful"] += bool(grew)
    wrap_method(linalg.RowSpace, "add", "linalg.rowspace_add",
                after=rowspace_result)

    wrap_function(center, "center_basis", "center.center_basis")
    wrap_function(center, "jm_center_span", "center.jm_span")
    wrap_function(center, "central_idempotents", "center.idempotents")
    wrap_function(center, "min_poly_on_center_ideal", "center.min_poly")

    wrap_function(ktheory, "verify_main_theorem", "ktheory.main_identity")
    wrap_function(ktheory, "restriction_table", "ktheory.restriction_table")
    wrap_function(ktheory, "verify_blocks", "ktheory.blocks")
    rebind(ktheory.fixed_point_character,
           t.counter("ktheory.fixed_points", ktheory.fixed_point_character))

    for cls, attr, name in [
            (rings.LaurentPoly, "__mul__", "rings.laurent_mul_calls"),
            (rings.CyclotomicNumber, "__mul__", "rings.cyclotomic_mul_calls"),
            (rings.CyclotomicNumber, "inverse",
             "rings.cyclotomic_inv_calls")]:
        counted = t.counter(name, getattr(cls, attr))
        setattr(cls, attr, counted)
        if attr == "__mul__":
            setattr(cls, "__rmul__", counted)
    return t


# span name -> metric prefix; each gives <prefix>_s and <prefix>_self_s
SPANS = [
    "hecke.selftest", "hecke.multiply", "hecke.invert",
    "linalg.kernel", "linalg.solve", "linalg.rowspace_add",
    "center.center_basis", "center.jm_span", "center.idempotents",
    "center.min_poly",
    "ktheory.main_identity", "ktheory.restriction_table", "ktheory.blocks",
]

COUNTERS = [
    "hecke.multiply_calls", "hecke.multiply_words", "hecke.invert_calls",
    "linalg.kernel_calls", "linalg.kernel_entries", "linalg.kernel_nnz",
    "linalg.solve_calls", "linalg.solve_entries", "ktheory.fixed_points",
    "rings.laurent_mul_calls", "rings.cyclotomic_mul_calls",
    "rings.cyclotomic_inv_calls",
]


def layer_metrics(t):
    """Flat metric name -> number for one traced process."""
    out = {"hecke.build_s": t.self_time["hecke.build"]}
    for name in SPANS:
        out[name + "_s"] = t.inclusive[name]
        out[name + "_self_s"] = t.self_time[name]
    for name in COUNTERS:
        out[name] = t.counts[name]
    out["linalg.rowspace_adds"] = t.counts["linalg.rowspace_add_calls"]
    adds = out["linalg.rowspace_adds"]
    out["linalg.rowspace_useful_ratio"] = (
        t.counts["linalg.rowspace_useful"] / adds if adds else 0.0)
    out["linalg.coeff_bits_max"] = t.maxima["linalg.coeff_bits_max"]
    return out
