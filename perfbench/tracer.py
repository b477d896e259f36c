"""Outside-in tracing of the acgw layers, for the traced benchmark run.

The tracer wraps the public functions of each layer module (its
``__all__``) and the public methods of both instance classes, rebinding
every ``acgw.*`` module attribute that holds the original, so calls made
inside the library are traced as well as calls from outside.  Each call
records a span ``(name, start, end, parent, op, raised)`` in memory.
Self time is a span's duration minus the part of it its child spans
cover.  Nothing under ``src/`` is modified: :meth:`Tracer.uninstall`
restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

#: the modules whose public callables are traced; a span's layer is the
#: module that defines the callable
LAYERS = ("documents", "chains", "homology", "snake", "oracle", "finset", "linear", "cli", "render")

#: complement and factorization primitives of an instance
PRIMITIVES = (
    "ker",
    "coker",
    "mixed_pullback",
    "classify_mixed",
    "factor_hor",
    "factor_ver",
    "hor_between_cokers",
    "ver_between_kernels",
    "compose_hor",
    "compose_ver",
    "validate_hor",
    "validate_ver",
    "is_complement_pair",
)

#: the functions reported one by one, as ``<layer>.<fn>``
REPORTED = (
    ("documents", ("parse", "validate_document", "serialize")),
    ("chains", ("validate_complex", "validate_hor_chain_mor", "validate_chain_ses", "coker_hor")),
    ("homology", ("homology", "h_on_map", "is_quasi_iso")),
    ("snake", ("les_of_ses", "snake_strong", "snake_weak", "zigzag_exactness")),
    ("oracle", ("free_complex", "rank_homology_dims")),
    ("finset", PRIMITIVES),
    ("linear", PRIMITIVES + ("rref", "solve", "nullspace")),
    ("cli", ("main",)),
    ("render", ("render_dot",)),
)


Span = tuple[str, float, float, int, int, bool]


def reported_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in REPORTED for fn in fns]


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run emits, in order."""
    names = []
    for name in reported_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["homology.prims_per_call", "linear.rref.cells", "trace.overhead_ratio"]
    return names


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        #: (name, start, end, parent index or -1, op id, raised); None while open
        self.spans: list[Span | None] = []
        self.rref_cells = 0
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ----- recording ---------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_cells = name == "linear.rref"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_cells:
                rows, cols = args[0].shape
                self.rref_cells += rows * cols
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised)

        return traced

    # ----- patching ----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced callable in every loaded ``acgw`` module."""
        from acgw.core import AcgwInstance

        modules = [m for n, m in sys.modules.items() if n == "acgw" or n.startswith("acgw.")]
        for layer in LAYERS:
            mod = sys.modules[f"acgw.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(obj, f"{layer}.{attr}")
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, key, wrapped)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and issubclass(cls, AcgwInstance) and cls.__module__ == mod.__name__:
                    for attr, obj in list(vars(cls).items()):
                        if inspect.isfunction(obj) and not attr.startswith("_"):
                            self._set(cls, attr, self.wrap(obj, f"{layer}.{attr}"))

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----- reading -----------------------------------------------------
    def write(self, path: str, ops: int) -> None:
        """The spans of operations ``0..ops-1``, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\traised\n")
            for idx, s in enumerate(self.spans):
                if s is not None and s[4] < ops:
                    name, start, end, parent, op, raised = s
                    fh.write(f"{op}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{int(raised)}\n")


def self_times(spans: Iterable[Span | None]) -> list[float]:
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to the span.  ``None`` entries get 0."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s is not None and s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        if s is None:
            out.append(0.0)
            continue
        start, end = s[1], s[2]
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


def aggregate(spans: list) -> dict[str, Any]:
    """Calls and self seconds per span name and self seconds per layer,
    plus instance primitives per ``homology()`` call that returned."""
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    layer_s: defaultdict[str, float] = defaultdict(float)
    prims_under_homology = 0
    homology_returned = 0
    for s, own in zip(spans, self_times(spans)):
        if s is None:
            continue
        name, _, _, parent, _, raised = s
        calls[name] += 1
        homology_returned += name == "homology.homology" and not raised
        self_s[name] += own
        layer_s[name.split(".", 1)[0]] += own
        if (
            parent >= 0
            and spans[parent] is not None
            and spans[parent][0] == "homology.homology"
            and not spans[parent][5]
            and name.split(".", 1)[1] in PRIMITIVES
        ):
            prims_under_homology += 1
    return {
        "calls": calls,
        "self_s": self_s,
        "layer_s": layer_s,
        "prims_per_call": prims_under_homology / homology_returned if homology_returned else 0.0,
    }
