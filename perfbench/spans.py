"""In-memory span recorder and the wrappers that time arbsurf's layers.

Spans are recorded from the benchmark's side only: each traced function is
replaced, for the duration of ``instrument``, at every attribute of the
loaded ``arbsurf`` modules that refers to it, so the wrapper is found at the
name each caller looks up (``project_to_cone`` in both ``arbsurf.projection``
and ``arbsurf.pipeline``, ``mmd2`` in ``arbsurf.chainstats``).  The
``PipelineContext.stage_*`` methods are wrapped on the class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (home module, function, span name); the span name is <module>.<function>.
TRACED_FUNCTIONS = (
    ("arbsurf.synth", "generate_surface", "synth.generate_surface"),
    ("arbsurf.synth", "extract_density", "synth.extract_density"),
    ("arbsurf.synth", "sample_clouds", "synth.sample_clouds"),
    ("arbsurf.grid", "check_mesh_admissibility", "grid.check_mesh_admissibility"),
    ("arbsurf.fd", "dupire_field", "fd.dupire_field"),
    ("arbsurf.smolyak", "smolyak_fit", "smolyak.smolyak_fit"),
    ("arbsurf.smolyak", "error_frontier", "smolyak.error_frontier"),
    ("arbsurf.cpwl", "compile_to_relu", "cpwl.compile_to_relu"),
    ("arbsurf.bridge", "build_bridge", "bridge.build_bridge"),
    ("arbsurf.bridge", "tri_sinkhorn", "bridge.tri_sinkhorn"),
    ("arbsurf.projection", "project_to_cone", "projection.project_to_cone"),
    ("arbsurf.projection", "projection_certificates",
     "projection.projection_certificates"),
    # private fallback of the alternating projection; absent once the
    # projection no longer needs it, and then simply not traced
    ("arbsurf.projection", "_polish_to_intersection",
     "projection.polish_to_intersection"),
    ("arbsurf.chainstats", "mmd2", "chainstats.mmd2"),
    ("arbsurf.chainstats", "median_bandwidth_mixture",
     "chainstats.median_bandwidth_mixture"),
    ("arbsurf.chainstats", "chain_energy", "chainstats.chain_energy"),
    ("arbsurf.chainstats", "gate_v2", "chainstats.gate_v2"),
    ("arbsurf.descent", "projected_descent", "descent.projected_descent"),
    ("arbsurf.risk", "eps_prox", "risk.eps_prox"),
    ("arbsurf.risk", "assemble_risk", "risk.assemble_risk"),
)

PROJECT = "projection.project_to_cone"
# project_to_cone spans are also split by the nearest of these ancestors
CALLER_GROUPS = {"projection.projection_certificates": "in_certificates",
                 "descent.projected_descent": "in_descent"}


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; the open-span stack gives each span its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the part of the span that its children cover."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(i, ()), key=lambda k: self.spans[k].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def ancestor_named(self, idx: int, names) -> str | None:
        p = self.spans[idx].parent
        while p is not None:
            if self.spans[p].name in names:
                return self.spans[p].name
            p = self.spans[p].parent
        return None


def kernel_evals(n: int, m: int) -> int:
    """Kernel evaluations of one full-mode MMD^2: the XX, YY and XY blocks."""
    return n * n + m * m + n * m


def _wrap(fn, name: str, rec: SpanRecorder, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(rec.spans[idx], args, result)
        return result
    return traced


def _note_mmd2(span, args, _result):
    X, Y = np.asarray(args[0]), np.asarray(args[1])
    span.attrs["kernel_evals"] = kernel_evals(len(X), len(Y))


def _keep_projection(span, _args, result):
    # Copied, so the check after the traced call sees what the caller
    # received.  Only the copy, a few microseconds, lands in the caller's
    # self time; the check itself runs outside every span.
    span.attrs["values"] = np.array(result.values, copy=True)
    span.attrs["strikes"] = np.asarray(result.grid.strikes)


_ON_RESULT = {"chainstats.mmd2": _note_mmd2, PROJECT: _keep_projection}


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Route the traced functions and pipeline stages through ``rec``."""
    patched = []
    try:
        arbsurf_modules = [m for n, m in list(sys.modules.items())
                           if n == "arbsurf" or n.startswith("arbsurf.")]
        for home, func, name in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(home), func, None)
            if original is None:
                continue
            traced = _wrap(original, name, rec, _ON_RESULT.get(name))
            for mod in arbsurf_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, traced)
        from arbsurf.pipeline import STAGES, PipelineContext
        for stage in STAGES:
            attr = f"stage_{stage}"
            original = PipelineContext.__dict__[attr]
            patched.append((PipelineContext, attr, original))
            setattr(PipelineContext, attr,
                    _wrap(original, f"pipeline.stage.{stage}", rec))
        yield rec
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
