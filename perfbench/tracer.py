"""Per-layer spans and counts for an in-process pass over conedef.cli.main.

The layers are the modules under ``src/conedef``.  :data:`TABLE` names the
public functions and methods wrapped in each; nothing in the package is
edited.  A module-level function is replaced at *every* binding that holds
it, across all loaded ``conedef`` modules, so a name brought in with
``from ... import`` (``cli.t1_via_normal``, ``delpezzo.hq_pn_omega1``) is
traced as well as the defining module's own.  Methods are replaced on the
class.  A name the table lists but the package no longer has is reported
as missing, and the metrics that depend on it are left out.

Each wrapped call records a span (id, parent, layer, name, duration) in
memory.  Counts that need a look at a matrix (nonzeros, repeat detection)
are taken after the span has closed; the time they take is subtracted
from every enclosing span, so self times exclude the counting.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from .workloads import WORKLOADS


@dataclass(frozen=True)
class LayerSpec:
    module: str
    functions: tuple[str, ...] = ()
    methods: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (class, names)
    expected_on: tuple[str, ...] = WORKLOADS  # workloads meant to reach the layer


_POLY = (
    "zero", "constant", "variable", "monomial", "is_zero", "total_degree", "is_homogeneous",
    "homogeneous_degree", "coefficient", "monomials", "derivative", "substitute", "to_string",
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
)
_RATFUN = (
    "from_polynomial", "monomial_quotient", "is_zero", "equals", "derivative", "dlog",
    "__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
)
_ELIM_METHODS = ("rank", "kernel_dim", "cokernel_dim", "pivot_columns", "rref", "rref_with_transform", "inverse")

TABLE: dict[str, LayerSpec] = {
    "cli": LayerSpec(
        "conedef.cli",
        ("main", "build_parser", "parse_variety", "parse_window", "cmd_t1", "cmd_rigidity",
         "cmd_jacobian", "cmd_cech", "cmd_atiyah"),
    ),
    "cones": LayerSpec(
        "conedef.cones",
        ("t1_weight", "t2_weight", "t1_table", "t2_table", "rigidity_verdict",
         "weight_zero_criterion", "corollary_flags", "pinkham_assembly"),
        expected_on=("plane-chase", "catalog-sweep"),
    ),
    "projective": LayerSpec(
        "conedef.projective",
        ("hq_pn_line", "hq_pn_omega1", "h1_tangent_pn_twist", "h2_tangent_p2_twist", "h0_bidegree",
         "h1_bidegree", "h2_bidegree", "intersection", "restrict_to_exceptional"),
        expected_on=("plane-chase", "catalog-sweep"),
    ),
    "p1": LayerSpec(
        "conedef.p1",
        ("h_dim", "basis", "mult_matrix", "euler_h1_block", "euler_restricted_h0", "euler_restricted_h1"),
        expected_on=("curve-jacobian", "catalog-sweep"),
    ),
    "presentation": LayerSpec(
        "conedef.presentation",
        ("build_presentation", "jacobian_matrix", "s_basis", "substitution_images", "normal_form",
         "coefficients_in_grade", "graded_jacobian_map", "euler_derivation_vector",
         "normal_bundle_h0", "t1_via_normal"),
        (("GradedJacobian", ("rank",)),),
        expected_on=("curve-jacobian", "catalog-sweep"),
    ),
    "polynomials": LayerSpec(
        "conedef.polynomials",
        ("degrevlex_cmp",),
        (("Polynomial", _POLY), ("RationalFunction", _RATFUN)),
        expected_on=("curve-jacobian", "catalog-sweep"),
    ),
    "linalg": LayerSpec(
        "conedef.linalg",
        ("rank", "kernel_dim", "cokernel_dim", "row_reduce", "hstack", "vstack"),
        (("RationalMatrix", ("from_rows", "zero", "identity", "copy", "transpose", "__matmul__",
                             "is_zero") + _ELIM_METHODS),),
    ),
    "delpezzo": LayerSpec("conedef.delpezzo", ("delpezzo_certificate",), expected_on=("catalog-sweep",)),
    "atiyah": LayerSpec("conedef.atiyah", ("atiyah_cocycle_check",), expected_on=("catalog-sweep",)),
}


def _nonzero_rows(reduced) -> int:
    return sum(1 for i in range(reduced.nrows) if any(reduced.entry(i, j) != 0 for j in range(reduced.ncols)))


# Eliminations, by wrapped name: how to read the rank from (matrix, result).
# Only the outermost one of nested calls (kernel_dim -> rank) is counted.
ELIMINATIONS: dict[str, Callable] = {
    "RationalMatrix.rank": lambda m, r: r,
    "RationalMatrix.kernel_dim": lambda m, r: m.ncols - r,
    "RationalMatrix.cokernel_dim": lambda m, r: m.nrows - r,
    "RationalMatrix.pivot_columns": lambda m, r: len(r),
    "RationalMatrix.rref": lambda m, r: _nonzero_rows(r),
    "RationalMatrix.rref_with_transform": lambda m, r: _nonzero_rows(r[0]),
    "RationalMatrix.inverse": lambda m, r: m.nrows,
    "rank": lambda m, r: r,
    "kernel_dim": lambda m, r: m.ncols - r,
    "cokernel_dim": lambda m, r: m.nrows - r,
    "row_reduce": lambda m, r: _nonzero_rows(r),
}

# Metrics and the wrapped names (layer, name) they are read from.
SOURCES = {
    "delpezzo.steps": ("delpezzo", "delpezzo_certificate"),
    "atiyah.triples": ("atiyah", "atiyah_cocycle_check"),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    layer: str
    name: str
    duration: float  # wall time minus the counting done inside it


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - child[s.id]
    return dict(out)


def layer_calls(spans: list[Span]) -> dict[str, int]:
    """Calls into each layer from another layer (or from outside)."""
    layer_of = {s.id: s.layer for s in spans}
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.parent is None or layer_of[s.parent] != s.layer:
            out[s.layer] += 1
    return dict(out)


class Tracer:
    """Installs the wrappers of :data:`TABLE`, records spans and counts, and
    restores every patched binding on :meth:`uninstall`."""

    def __init__(self, table: dict[str, LayerSpec] = TABLE) -> None:
        self.table = table
        self.spans: list[Optional[Span]] = []  # None while a span is open
        self.stack: list[tuple[int, str]] = []  # open spans: (id, layer)
        self.excluded = 0.0  # counting time, subtracted from enclosing spans
        self.counts: dict[str, float] = defaultdict(float)
        self.fired: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self.wrapped: list[tuple[str, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set = set()

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        self.missing, self.wrapped = [], []
        modules = {}
        for spec in self.table.values():
            try:
                modules[spec.module] = importlib.import_module(spec.module)
            except ImportError:
                self.missing.append(spec.module)
        mods = [m for n, m in list(sys.modules.items()) if n == "conedef" or n.startswith("conedef.")]
        for layer, spec in self.table.items():
            module = modules.get(spec.module)
            if module is None:
                continue
            for name in spec.functions:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{spec.module}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, value, wrapper)
                self.wrapped.append((layer, name))
            for cls_name, names in spec.methods:
                cls = getattr(module, cls_name, None)
                for name in names:
                    raw = vars(cls).get(name) if isinstance(cls, type) else None
                    qual = f"{cls_name}.{name}"
                    if raw is None:
                        self.missing.append(f"{spec.module}.{qual}")
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(layer, qual, raw.__func__))
                    elif callable(raw):
                        new = self._wrap(layer, qual, raw)
                    else:
                        self.missing.append(f"{spec.module}.{qual}")
                        continue
                    self._patch(cls, name, raw, new)
                    self.wrapped.append((layer, qual))

    def _patch(self, owner: object, attr: str, old: object, new: object) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # ---- recording ------------------------------------------------------

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans, self.stack, self.excluded = [], [], 0.0
        self.counts = defaultdict(float)

    def begin_command(self) -> None:
        self._seen = set()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        elim = ELIMINATIONS.get(name) if layer == "linalg" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_layer = tracer.stack[-1] if tracer.stack else (None, None)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append((sid, layer))
            excluded0 = tracer.excluded
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = Span(sid, parent, layer, name, t1 - t0 - (tracer.excluded - excluded0))
                tracer.fired.add((layer, name))
            c0 = perf_counter()
            tracer._count(layer, name, parent_layer, elim, args, result)
            tracer.excluded += perf_counter() - c0
            return result

        return wrapper

    def _count(self, layer, name, parent_layer, elim, args, result) -> None:
        if (layer, name) == SOURCES["delpezzo.steps"]:
            self.counts["delpezzo.steps"] += len(result.steps)
        elif (layer, name) == SOURCES["atiyah.triples"]:
            self.counts["atiyah.triples"] += len(result.triples)
        elif elim is not None and parent_layer != "linalg":
            self._count_elimination(args[0], elim(args[0], result))

    def _count_elimination(self, m, rank: int) -> None:
        nonzeros = tuple(
            (i, j, x) for i in range(m.nrows) for j in range(m.ncols) if (x := m.entry(i, j)) != 0
        )
        cells = m.nrows * m.ncols
        key = (m.nrows, m.ncols, nonzeros)
        c = self.counts
        c["linalg.elims"] += 1
        c["linalg.cells"] += cells
        c["linalg.max_cells"] = max(c["linalg.max_cells"], cells)
        c["linalg.nnz"] += len(nonzeros)
        c["linalg.rank_sum"] += rank
        if cells and key in self._seen:
            c["linalg.repeat_elims"] += 1
        self._seen.add(key)

    def silent_layers(self, workload: str) -> list[str]:
        """Layers meant to be reached on ``workload`` whose wrappers never fired."""
        fired = {layer for layer, _ in self.fired}
        return [
            layer for layer, spec in self.table.items()
            if workload in spec.expected_on and layer not in fired
            and any(l == layer for l, _ in self.wrapped)
        ]

    def never_fired(self) -> list[str]:
        return [f"{layer}.{name}" for layer, name in self.wrapped if (layer, name) not in self.fired]
