"""Span and count recorder, attached to kirbycalc's public functions from outside.

`install` swaps each traced public function for a wrapper in every loaded
kirbycalc module that binds it, so calls the library makes to itself (for
example `homology` calling `smith_normal_form`) are traced as child spans.
Spans stay in memory and are handed back when the pass ends.  Nothing in
this module is imported by an untraced pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

# (module, public name) of every traced function; a dotted name is a method.
TRACED: dict[str, tuple[str, ...]] = {
    "homology": ("smith_normal_form", "kernel_basis", "homology",
                 "boundary_first_homology", "inertia"),
    "swledger": ("rational_blowdown_descend", "blow_up_basic_classes",
                 "d_invariant", "is_simple_type", "IntersectionLattice.dual_square",
                 "min_genus_bound", "adjunction_check",
                 "alexander_polynomial_torus", "knot_surgery_basic_classes"),
    "scenarios": ("build_X0_model", "build_genus_model", "build_Cp",
                  "annotated_Dp_tilde_sum", "SyntheticModel.chain_vectors",
                  "SyntheticModel.complement_basis", "SyntheticModel.torus"),
    "handles": ("handle_slide", "blow_up", "blow_down", "dot_zero_swap",
                "rational_blowdown_splice", "boundary_sum"),
    "hbd": ("print_hbd", "parse_hbd"),
    "legendrian": ("stein_check", "component_count", "thurston_bennequin"),
    "cli": ("run_command",),
}
LAYERS = tuple(TRACED)

# Counts kept at layer boundaries besides calls and busy time; `max` ones keep
# the largest value seen, the others add up.
COUNTS = ("homology.smith_normal_form.uv_bits_max",
          "homology.smith_normal_form.dim_max",
          "swledger.blow_up_basic_classes.classes_in",
          "swledger.blow_up_basic_classes.classes_out",
          "swledger.rational_blowdown_descend.classes_in",
          "swledger.rational_blowdown_descend.classes_out",
          "swledger.knot_surgery_basic_classes.classes_in",
          "swledger.knot_surgery_basic_classes.classes_out",
          "swledger.warnings",
          "handles.size_max",
          "hbd.parse_hbd.bytes",
          "hbd.roundtrip_mismatch",
          "legendrian.events",
          "cli.run_command.nonzero_exit")


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Recorder:
    """Spans (op id, span id, parent id, name, start, end) and named counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []
        self._next = 0

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def high(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op_id, span, parent, name, start, end))
            if after is not None:
                # its own span, so counting never lands in the caller's self time
                start = time.perf_counter()
                after(self, args, result)
                self.spans.append((self.op_id, self._next, parent, "bench.recorder",
                                   start, time.perf_counter()))
                self._next += 1
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries for x in row),
               default=0)


def _snf(rec, args, result):
    m = args[0]
    rec.high("homology.smith_normal_form.dim_max", max(m.rows, m.cols))
    rec.high("homology.smith_normal_form.uv_bits_max",
             max(_bits(result.u), _bits(result.v)))


def _classes(fn: str, out_index: int | None):
    def after(rec, args, result):
        rec.add(f"swledger.{fn}.classes_in", args[1].count)
        out = result if out_index is None else result[out_index]
        rec.add(f"swledger.{fn}.classes_out", out.count)
    return after


def _size(rec, args, result):
    for d in (*args, result):
        if hasattr(d, "all_ids"):
            rec.high("handles.size_max", len(d.all_ids))


def _parse(rec, args, result):
    rec.add("hbd.parse_hbd.bytes", len(args[0].encode()))


def _events(rec, args, result):
    rec.add("legendrian.events", len(args[0].events))


def _cli(rec, args, result):
    if result != 0:
        rec.add("cli.run_command.nonzero_exit")


AFTER = {
    "homology.smith_normal_form": _snf,
    "swledger.blow_up_basic_classes": _classes("blow_up_basic_classes", 1),
    "swledger.rational_blowdown_descend": _classes("rational_blowdown_descend", 1),
    "swledger.knot_surgery_basic_classes": _classes("knot_surgery_basic_classes", None),
    "hbd.parse_hbd": _parse,
    "legendrian.component_count": _events,
    "legendrian.thurston_bennequin": _events,
    "cli.run_command": _cli,
}
AFTER.update({f"handles.{fn}": _size for fn in TRACED["handles"]})


def install(rec: Recorder) -> None:
    """Route every traced public function of the loaded kirbycalc through `rec`."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "kirbycalc" or name.startswith("kirbycalc."))]
    for mod_name, fns in TRACED.items():
        home = sys.modules[f"kirbycalc.{mod_name}"]
        for fn in fns:
            name = f"{mod_name}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, rec.wrap(name, getattr(cls, meth), AFTER.get(name)))
                continue
            original = getattr(home, fn)
            wrapper = rec.wrap(name, original, AFTER.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds): duration minus time covered by children."""
    child: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for _, span, _, name, start, end in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += (end - start) - child[span]
    return {k: (v[0], v[1]) for k, v in out.items()}


def top_level_time(spans) -> float:
    """Seconds covered by spans with no parent (library time seen from an op)."""
    return sum(end - start for _, _, parent, _, start, end in spans if parent < 0)
