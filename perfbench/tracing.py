"""Spans and counts around the public functions of each ``nematicq`` module.

Nothing under ``src/`` knows about tracing.  ``instrument`` rebinds, for
the duration of a ``with`` block, the module attributes through which the
library calls its own layers (``nematicq.hisd.find_saddle``,
``nematicq.sav.cg``, ``nematicq.energy.bulk_gradient``, ...) to wrappers
that open a span around the original function, and restores them after.
``CountingSystem`` wraps a ``System`` so that its evaluations are counted
where they happen.

Spans are kept in flat arrays with a parent link each and are analysed
(and written out) only when the run ends.  The calibration chunks that
``pacer.py`` runs from a timer signal during a traced run are taken out
of every span they fell into.  A span's self time is then its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse.linalg

from nematicq.systems import System

__all__ = ["Tracer", "CountingSystem", "instrument", "layer_metrics", "PER_LAYER"]

# bytes a bulk-gradient node evaluation must move at least: 5 float64
# components in, 5 out (a computed figure, not a measured one)
BULK_BYTES_PER_NODE = 80


class Tracer:
    """Spans with parent links and counts attached to the open span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.event_span = array("i")
        self.event_name = array("i")
        self.event_value = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.parent)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(np.nan)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0, span: int | None = None) -> None:
        """Attach a count to ``span`` (default: the innermost open span)."""
        self.event_span.append(self._stack[-1] if span is None else span)
        self.event_name.append(self._id(name))
        self.event_value.append(value)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(span, result, *args)`` may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(sid, out, *args)
            return out

        return traced

    # -- analysis, after the run -------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "event_span": np.frombuffer(self.event_span, dtype=np.int32),
            "event_name": np.frombuffer(self.event_name, dtype=np.int32),
            "event_value": np.frombuffer(self.event_value, dtype=np.float64),
        }

    def save(self, path: Path, chunks: tuple[np.ndarray, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays(), chunk_start=chunks[0], chunk_s=chunks[1])


class SpanTable:
    """Read-only queries over a finished trace.

    ``chunks`` holds the start times and durations of calibration chunks
    run during the trace; a chunk runs between two bytecodes, so it lies
    wholly inside every span open when it started.
    """

    def __init__(self, tracer: Tracer, chunks: tuple[np.ndarray, np.ndarray] | None = None):
        a = tracer.arrays()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name, self.parent = a["name"], a["parent"]
        self.duration = a["end"] - a["start"]
        if chunks is not None and len(chunks[0]):
            order = np.argsort(chunks[0])
            starts = chunks[0][order]
            before = np.concatenate([[0.0], np.cumsum(chunks[1][order])])
            inside = before[np.searchsorted(starts, a["end"])] - before[np.searchsorted(starts, a["start"])]
            self.duration = self.duration - inside
        has_parent = self.parent >= 0
        child = np.zeros_like(self.duration)
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self.event_span, self.event_name, self.event_value = (
            a["event_span"],
            a["event_name"],
            a["event_value"],
        )
        self._within: dict[str, np.ndarray] = {}

    def _is(self, name: str) -> np.ndarray:
        return self.name == self._ids.get(name, -1)

    def within(self, ancestor: str) -> np.ndarray:
        """Mask of spans that are ``ancestor`` spans or lie inside one."""
        if ancestor not in self._within:
            mask = self._is(ancestor)
            has_parent = self.parent >= 0
            while True:
                grown = mask.copy()
                grown[has_parent] |= mask[self.parent[has_parent]]
                if np.array_equal(grown, mask):
                    break
                mask = grown
            self._within[ancestor] = mask
        return self._within[ancestor]

    def calls(self, name: str, within: str | None = None) -> int:
        mask = self._is(name)
        if within is not None:
            mask &= self.within(within)
        return int(mask.sum())

    def seconds(self, name: str) -> float:
        return float(self.duration[self._is(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._is(name)].sum())

    def total(self, event: str, span_name: str | None = None, within: str | None = None) -> float:
        """Sum of an event's values, optionally only on spans of one name or inside one."""
        keep = self.event_name == self._ids.get(event, -1)
        spans = self.event_span
        if span_name is not None:
            keep &= (spans >= 0) & self._is(span_name)[spans]
        if within is not None:
            keep &= (spans >= 0) & self.within(within)[spans]
        return float(self.event_value[keep].sum())


class CountingSystem(System):
    """A ``System`` that counts the evaluations it forwards.

    ``energy`` and ``gradient`` add a count to the open span.  The
    finite-difference ``hessian_vec`` runs the inner system's own
    implementation with this proxy as ``self``, inside a
    ``systems.hessian_vec`` span, so the two gradients of each product
    are counted and attributed to that span.  Every other attribute,
    ``preconditioner`` included, is the inner system's.
    """

    def __init__(self, inner: System, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.n = inner.n

    def energy(self, x):
        self._tracer.count("systems.energy")
        return self._inner.energy(x)

    def gradient(self, x):
        self._tracer.count("systems.gradient")
        return self._inner.gradient(x)

    def hessian_vec(self, x, v, l=None):
        sid = self._tracer.open("systems.hessian_vec")
        try:
            return type(self._inner).hessian_vec(self, x, v, l)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, name):
        if name.startswith("__") or name in ("_inner", "_tracer"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class _CountingLU:
    """LU factor whose ``solve`` calls are counted as ``lu_solve``."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count("lu_solve")
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        if name.startswith("__") or name in ("_lu", "_tracer"):
            raise AttributeError(name)
        return getattr(self._lu, name)


def _module(name: str):
    return importlib.import_module(f"nematicq.{name}")


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the library's layer boundaries to traced wrappers, then restore them."""
    saved = []

    def rebind(module, attr: str, new) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    energy, sav, spectrum = _module("energy"), _module("sav"), _module("spectrum")
    hisd, mep, minimize, fieldio = _module("hisd"), _module("mep"), _module("minimize"), _module("fieldio")

    def node_evals(sid, out, q, *rest):
        tracer.count("node_evals", q.size // 5, sid)

    def report_iterations(sid, out, *args):
        tracer.count("report_iterations", out.iterations, sid)

    def minimize_counts(sid, res, *args):
        tracer.count("iterations", res.iterations, sid)
        tracer.count("n_grad", res.n_grad, sid)
        tracer.count("n_energy", res.n_energy, sid)

    def landscape_counts(sid, graph, *args):
        tracer.count("new_nodes", len(graph.nodes) - 1, sid)
        tracer.count("searches", graph.searches, sid)

    def file_bytes(sid, out, path, *rest):
        tracer.count("bytes", Path(path).stat().st_size, sid)

    wrap = tracer.wrap
    bulk_gradient = wrap("qtensor.bulk_gradient", energy.bulk_gradient, node_evals)
    bulk_energy = wrap("qtensor.bulk_energy", energy.bulk_energy)
    gradient = wrap("energy.gradient", energy.gradient)
    free_energy = wrap("energy.energy", energy.free_energy)
    elastic_apply = wrap("energy.elastic_apply", energy.elastic_apply)
    splu = scipy.sparse.linalg.splu
    lu_factor = wrap("energy.lu_factor", lambda *a, **k: _CountingLU(splu(*a, **k), tracer))
    smallest_eigs = wrap("spectrum.smallest_eigs", spectrum.smallest_eigs, report_iterations)
    operator_scale = wrap("spectrum.operator_scale", spectrum.operator_scale)
    orig_find_saddle = hisd.find_saddle
    wrong_index = _module("errors").WrongIndex

    def find_saddle(*args, **kwargs):
        # outcome of one search: verified, wrong index, or failed (NoConvergence)
        sid = tracer.open("hisd.find_saddle")
        outcome = "failed"
        try:
            out = orig_find_saddle(*args, **kwargs)
            outcome = "verified"
            return out
        except wrong_index:
            outcome = "wrong_index"
            raise
        finally:
            tracer.close(sid)
            tracer.count(f"branch_{outcome}", 1, sid)

    for module in (energy, sav):
        rebind(module, "bulk_gradient", bulk_gradient)
        rebind(module, "bulk_energy", bulk_energy)
        rebind(module, "gradient", gradient)
        rebind(module, "free_energy", free_energy)
        rebind(module, "elastic_apply", elastic_apply)
    # the preconditioner imports splu from scipy at call time, sav at import time
    rebind(scipy.sparse.linalg, "splu", lu_factor)
    rebind(sav, "splu", lu_factor)
    for module in (spectrum, hisd, minimize):
        rebind(module, "smallest_eigs", smallest_eigs)
    for module in (spectrum, hisd, mep):
        rebind(module, "operator_scale", operator_scale)
    rebind(spectrum, "lobpcg", wrap("spectrum.lobpcg", spectrum.lobpcg))
    rebind(minimize, "minimize", wrap("minimize.minimize", minimize.minimize, minimize_counts))
    rebind(sav, "sav_step", wrap("sav.sav_step", sav.sav_step))
    rebind(sav, "cg", wrap("sav.cg", sav.cg))
    rebind(sav, "flow_to_equilibrium", wrap("sav.flow_to_equilibrium", sav.flow_to_equilibrium))
    rebind(hisd, "find_saddle", find_saddle)
    rebind(hisd, "hisd_step", wrap("hisd.hisd_step", hisd.hisd_step))
    rebind(hisd, "classify_stationary", wrap("hisd.classify_stationary", hisd.classify_stationary))
    rebind(hisd, "make_record", wrap("hisd.make_record", hisd.make_record))
    rebind(hisd, "build_landscape", wrap("hisd.build_landscape", hisd.build_landscape, landscape_counts))
    rebind(mep, "find_saddle", wrap("mep.climb", find_saddle))
    rebind(mep, "smallest_eigs", wrap("mep.certify", smallest_eigs))
    rebind(mep, "find_mep", wrap("mep.find_mep", mep.find_mep))
    for attr in ("evolve_step", "reparametrize", "perpendicular_residual"):
        rebind(mep, attr, wrap(f"mep.{attr}", getattr(mep, attr)))
    rebind(fieldio, "write_field", wrap("fieldio.write_field", fieldio.write_field, file_bytes))
    rebind(fieldio, "read_field", wrap("fieldio.read_field", fieldio.read_field))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("qtensor.bulk_gradient.calls", "count", "lower"),
    ("qtensor.bulk_gradient.s", "s", "lower"),
    ("qtensor.bulk_gradient.node_evals", "count", "lower"),
    ("qtensor.bulk_gradient.bytes_min", "B_computed", "lower"),
    ("qtensor.bulk_energy.calls", "count", "lower"),
    ("qtensor.bulk_energy.s", "s", "lower"),
    ("energy.gradient.calls", "count", "lower"),
    ("energy.gradient.self_s", "s", "lower"),
    ("energy.energy.calls", "count", "lower"),
    ("energy.energy.self_s", "s", "lower"),
    ("energy.elastic_apply.calls", "count", "lower"),
    ("energy.elastic_apply.s", "s", "lower"),
    ("energy.lu_factor.calls", "count", "lower"),
    ("energy.lu_factor.s", "s", "lower"),
    ("systems.gradient.calls", "count", "lower"),
    ("systems.energy.calls", "count", "lower"),
    ("systems.hessian_vec.calls", "count", "lower"),
    ("systems.hessian_vec.self_s", "s", "lower"),
    ("spectrum.smallest_eigs.calls", "count", "lower"),
    ("spectrum.smallest_eigs.s", "s", "lower"),
    ("spectrum.lobpcg.calls", "count", "lower"),
    ("spectrum.lobpcg.self_s", "s", "lower"),
    ("spectrum.lobpcg.matvecs", "count", "lower"),
    ("spectrum.report_iterations", "count", "lower"),
    ("spectrum.operator_scale.calls", "count", "lower"),
    ("spectrum.operator_scale.s", "s", "lower"),
    ("minimize.iterations", "count", "lower"),
    ("minimize.n_grad", "count", "lower"),
    ("minimize.n_energy", "count", "lower"),
    ("minimize.self_s", "s", "lower"),
    ("sav.steps", "count", "lower"),
    ("sav.sav_step.self_s", "s", "lower"),
    ("sav.cg.calls", "count", "lower"),
    ("sav.cg.matvecs", "count", "lower"),
    ("sav.cg.self_s", "s", "lower"),
    ("sav.lu_solves", "count", "lower"),
    ("hisd.find_saddle.calls", "count", "lower"),
    ("hisd.find_saddle.self_s", "s", "lower"),
    ("hisd.hisd_step.calls", "count", "lower"),
    ("hisd.hisd_step.self_s", "s", "lower"),
    ("hisd.branches_verified", "count", "higher"),
    ("hisd.branches_wrong_index", "count", "lower"),
    ("hisd.branches_failed", "count", "lower"),
    ("hisd.new_nodes_per_search", "ratio", "higher"),
    ("mep.sweeps", "count", "lower"),
    ("mep.evolve_step.self_s", "s", "lower"),
    ("mep.reparametrize.calls", "count", "lower"),
    ("mep.reparametrize.self_s", "s", "lower"),
    ("mep.perpendicular_residual.s", "s", "lower"),
    ("mep.climb.s", "s", "lower"),
    ("mep.climb.steps", "count", "lower"),
    ("mep.certify.s", "s", "lower"),
    ("fieldio.write_field.calls", "count", "lower"),
    ("fieldio.write_field.bytes", "B", "lower"),
    ("fieldio.write_field.s", "s", "lower"),
    ("fieldio.read_field.s", "s", "lower"),
    ("minimize_s", "s", "lower"),
    ("certify_s", "s", "lower"),
    ("flow_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer, chunks: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
    """Every per-layer metric that the trace itself determines."""
    t = SpanTable(tracer, chunks)
    node_evals = t.total("node_evals", "qtensor.bulk_gradient")
    searches = t.total("searches", "hisd.build_landscape")
    landscape = "hisd.build_landscape"
    return {
        "qtensor.bulk_gradient.calls": t.calls("qtensor.bulk_gradient"),
        "qtensor.bulk_gradient.s": t.seconds("qtensor.bulk_gradient"),
        "qtensor.bulk_gradient.node_evals": node_evals,
        "qtensor.bulk_gradient.bytes_min": BULK_BYTES_PER_NODE * node_evals,
        "qtensor.bulk_energy.calls": t.calls("qtensor.bulk_energy"),
        "qtensor.bulk_energy.s": t.seconds("qtensor.bulk_energy"),
        "energy.gradient.calls": t.calls("energy.gradient"),
        "energy.gradient.self_s": t.self_seconds("energy.gradient"),
        "energy.energy.calls": t.calls("energy.energy"),
        "energy.energy.self_s": t.self_seconds("energy.energy"),
        "energy.elastic_apply.calls": t.calls("energy.elastic_apply"),
        "energy.elastic_apply.s": t.seconds("energy.elastic_apply"),
        "energy.lu_factor.calls": t.calls("energy.lu_factor"),
        "energy.lu_factor.s": t.seconds("energy.lu_factor"),
        "systems.gradient.calls": t.total("systems.gradient"),
        "systems.energy.calls": t.total("systems.energy"),
        "systems.hessian_vec.calls": t.calls("systems.hessian_vec"),
        "systems.hessian_vec.self_s": t.self_seconds("systems.hessian_vec"),
        "spectrum.smallest_eigs.calls": t.calls("spectrum.smallest_eigs"),
        "spectrum.smallest_eigs.s": t.seconds("spectrum.smallest_eigs"),
        "spectrum.lobpcg.calls": t.calls("spectrum.lobpcg"),
        "spectrum.lobpcg.self_s": t.self_seconds("spectrum.lobpcg"),
        "spectrum.lobpcg.matvecs": t.calls("systems.hessian_vec", within="spectrum.lobpcg"),
        "spectrum.report_iterations": t.total("report_iterations"),
        "spectrum.operator_scale.calls": t.calls("spectrum.operator_scale"),
        "spectrum.operator_scale.s": t.seconds("spectrum.operator_scale"),
        "minimize.iterations": t.total("iterations", "minimize.minimize"),
        "minimize.n_grad": t.total("n_grad", "minimize.minimize"),
        "minimize.n_energy": t.total("n_energy", "minimize.minimize"),
        "minimize.self_s": t.self_seconds("minimize.minimize"),
        "sav.steps": t.calls("sav.sav_step"),
        "sav.sav_step.self_s": t.self_seconds("sav.sav_step"),
        "sav.cg.calls": t.calls("sav.cg"),
        "sav.cg.matvecs": t.calls("energy.elastic_apply", within="sav.cg"),
        "sav.cg.self_s": t.self_seconds("sav.cg"),
        "sav.lu_solves": t.total("lu_solve", within="sav.cg"),
        "hisd.find_saddle.calls": t.calls("hisd.find_saddle"),
        "hisd.find_saddle.self_s": t.self_seconds("hisd.find_saddle"),
        "hisd.hisd_step.calls": t.calls("hisd.hisd_step"),
        "hisd.hisd_step.self_s": t.self_seconds("hisd.hisd_step"),
        "hisd.branches_verified": t.total("branch_verified", within=landscape),
        "hisd.branches_wrong_index": t.total("branch_wrong_index", within=landscape),
        "hisd.branches_failed": t.total("branch_failed", within=landscape),
        "hisd.new_nodes_per_search": t.total("new_nodes", landscape) / searches if searches else 0.0,
        "mep.sweeps": t.calls("mep.evolve_step"),
        "mep.evolve_step.self_s": t.self_seconds("mep.evolve_step"),
        "mep.reparametrize.calls": t.calls("mep.reparametrize"),
        "mep.reparametrize.self_s": t.self_seconds("mep.reparametrize"),
        "mep.perpendicular_residual.s": t.seconds("mep.perpendicular_residual"),
        "mep.climb.s": t.seconds("mep.climb"),
        "mep.climb.steps": t.calls("hisd.hisd_step", within="mep.climb"),
        "mep.certify.s": t.seconds("mep.certify"),
        "fieldio.write_field.calls": t.calls("fieldio.write_field"),
        "fieldio.write_field.bytes": t.total("bytes", "fieldio.write_field"),
        "fieldio.write_field.s": t.seconds("fieldio.write_field"),
        "fieldio.read_field.s": t.seconds("fieldio.read_field"),
    }
