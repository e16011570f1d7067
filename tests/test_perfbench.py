"""The benchmark's self-test runs against the current library.

The benchmark traces the library by rebinding module attributes by name
(``perfbench/tracing.py``); renaming one of them breaks the self-test.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from nematicq.energy import LdGSystem
from nematicq.field import Domain
from nematicq.qtensor import BulkParams
from nematicq.systems import make_rng

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_counting_proxy_runs_the_exact_ldg_product():
    # the proxy runs LdGSystem.hessian_vec with itself as self: the product
    # must be the inner system's, and take no gradient inside its span
    tracing = _tracing()
    sy = LdGSystem(Domain(nx=8, ny=8, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar"))
    tracer = tracing.Tracer()
    proxy = tracing.CountingSystem(sy, tracer)
    gen = make_rng(5, "test:perfbench")
    x = 0.4 * gen.normal(size=sy.n)
    v = gen.normal(size=(sy.n, 3))
    assert np.array_equal(proxy.hessian_vec(x, v), sy.hessian_vec(x, v))
    assert np.array_equal(proxy.hessian_vec(x, v[:, 0]), sy.hessian_vec(x, v[:, 0]))
    table = tracing.SpanTable(tracer)
    assert table.calls("systems.hessian_vec") == 2
    assert table.total("systems.gradient", "systems.hessian_vec") == 0
    assert table.total("systems.gradient") == 0


def test_counting_proxy_counts_energy_gradient_as_two_calls():
    # the proxy keeps the base-class energy_gradient, so one call is one
    # counted energy and one counted gradient, and traced counts stay comparable
    tracing = _tracing()
    sy = LdGSystem(Domain(nx=6, ny=6, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar"))
    tracer = tracing.Tracer()
    proxy = tracing.CountingSystem(sy, tracer)
    x = 0.4 * make_rng(6, "test:perfbench").normal(size=sy.n)
    e, g = proxy.energy_gradient(x)
    assert e == sy.energy(x) and np.array_equal(g, sy.gradient(x))
    table = tracing.SpanTable(tracer)
    assert table.total("systems.energy") == 1
    assert table.total("systems.gradient") == 1
