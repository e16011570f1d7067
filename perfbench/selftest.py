"""Self-test: the benchmark's counters are exact and tracing changes no result.

On toy systems with known call counts it checks that

* the counting proxy's gradient and energy counts equal
  ``MinimizeResult.n_grad`` and ``n_energy``;
* one finite-difference Hessian product is two gradient calls, both
  attributed to the product's span;
* traced and untraced runs return bit-identical energies, indices and
  fields (toy landscape, a LOBPCG-sized spectrum, an 8 x 8 tensor field);
* calibration chunks run inside spans are taken out of their times.

Run it from the root of a checkout; it exits with status 1 on a failure:

    python3 perfbench/selftest.py

Traced benchmark runs (``run.py --trace 1``) run it first and count each
failure in ``failed``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nematicq import BulkParams, Domain, LandscapeOptions, LdGSystem, seed_field
from nematicq.toys import DiagQuadratic, Quartic2D
from pacer import Pacer
from tracing import CountingSystem, SpanTable, Tracer, instrument

hisd = importlib.import_module("nematicq.hisd")
minimize_mod = importlib.import_module("nematicq.minimize")
spectrum = importlib.import_module("nematicq.spectrum")


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _counts_match_minimize(problems: list) -> None:
    tracer = Tracer()
    res = minimize_mod.minimize(CountingSystem(Quartic2D(), tracer), np.array([0.3, -1.7]))
    table = SpanTable(tracer)
    n_grad, n_energy = table.total("systems.gradient"), table.total("systems.energy")
    _expect(problems, n_grad == res.n_grad, f"proxy counted {n_grad} gradients, minimize {res.n_grad}")
    _expect(problems, n_energy == res.n_energy, f"proxy counted {n_energy} energies, minimize {res.n_energy}")


def _product_is_two_gradients(problems: list) -> None:
    inner = DiagQuadratic(np.linspace(-1.0, 3.0, 7))
    tracer = Tracer()
    proxy = CountingSystem(inner, tracer)
    x, v = np.linspace(0.5, 1.5, 7), np.linspace(-1.0, 1.0, 7)
    hv = proxy.hessian_vec(x, v)
    table = SpanTable(tracer)
    _expect(problems, table.calls("systems.hessian_vec") == 1, "one product did not open one span")
    inside = table.total("systems.gradient", "systems.hessian_vec")
    _expect(problems, inside == 2, f"one product made {inside} gradient calls inside its span, not 2")
    _expect(problems, table.total("systems.gradient") == 2, "gradient calls outside the product span")
    _expect(problems, np.array_equal(hv, inner.hessian_vec(x, v)), "proxy product differs from the system's")


def _toy_landscape(system):
    top = hisd.make_record(system, np.zeros(2))
    graph = hisd.build_landscape(system, top, LandscapeOptions())
    return [(rec.energy, rec.morse_index, rec.field) for rec in graph.nodes]


def _diag_spectrum(system):
    rep = spectrum.smallest_eigs(system, np.zeros(system.n), 3)
    return [(float(w), 0, v) for w, v in zip(rep.eigenvalues, rep.eigenvectors.T)]


def _small_field(system):
    res = minimize_mod.minimize(system, seed_field(system.domain, "random(0.2)", seed=7).flat)
    index, _, _ = hisd.classify_stationary(system, res.x)
    return [(res.energy, index, res.x)]


def _tracing_changes_nothing(problems: list) -> None:
    domain = Domain(nx=8, ny=8, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
    cases = [
        ("toy landscape", _toy_landscape, Quartic2D),
        ("LOBPCG spectrum", _diag_spectrum, lambda: DiagQuadratic(np.linspace(-2.0, 5.0, 200))),
        ("8x8 field", _small_field, lambda: LdGSystem(domain)),
    ]
    for label, run, make in cases:
        plain = run(make())
        tracer = Tracer()
        with instrument(tracer):
            traced = run(CountingSystem(make(), tracer))
        same = len(plain) == len(traced) and all(
            e1 == e2 and m1 == m2 and np.array_equal(x1, x2)
            for (e1, m1, x1), (e2, m2, x2) in zip(plain, traced)
        )
        _expect(problems, same, f"{label}: traced and untraced results differ")
        if label == "8x8 field":
            table = SpanTable(tracer)
            proxy, layer = table.total("systems.gradient"), table.calls("energy.gradient")
            _expect(problems, proxy == layer, f"{proxy} system gradients but {layer} energy.gradient spans")
            matvecs = table.calls("systems.hessian_vec", within="spectrum.lobpcg")
            _expect(problems, matvecs > 0, "no Hessian products counted inside LOBPCG")


def _chunks_leave_spans(problems: list) -> None:
    pacer, tracer = Pacer(), Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    pacer.chunk()
    tracer.close(inner)
    pacer.chunk()
    tracer.close(outer)
    table = SpanTable(tracer, pacer.chunk_log())
    chunk = min(pacer.chunk_times())
    left = table.seconds("outer")
    _expect(problems, left < 0.1 * chunk, f"{left:.2e} s of chunks left in a span after removal")
    _expect(problems, table.self_seconds("outer") < 0.1 * chunk, "chunk time left in a parent's self time")


def problems() -> list[str]:
    """Every failed self-test check, as a message; empty when all pass."""
    found: list[str] = []
    _counts_match_minimize(found)
    _product_is_two_gradients(found)
    _tracing_changes_nothing(found)
    _chunks_leave_spans(found)
    return found


if __name__ == "__main__":
    found = problems()
    for message in found:
        print(f"FAILED {message}")
    print("self-test passed" if not found else f"self-test: {len(found)} failure(s)")
    sys.exit(1 if found else 0)
