"""The SciPy a process loads: ``import nematicq`` and the Landau-de Gennes
solvers load ``scipy.linalg`` and ``scipy.sparse.linalg`` only; the
Maier-Saupe functions load ``scipy.integrate`` and ``scipy.optimize`` on
their first call."""

import dataclasses
import json
import subprocess
import sys

from nematicq.maier_saupe import critical_alpha, solve_branches

REPORT = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

BASELINE = REPORT + """
import scipy.linalg, scipy.sparse.linalg
print(json.dumps(scipy_modules()))
"""

SOLVERS = REPORT + """
import dataclasses
from nematicq import BulkParams, Domain, LdGSystem, classify_stationary, minimize, seed_field
domain = Domain(nx=8, ny=8, lambda2=27.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
system = LdGSystem(domain)
res = minimize(system, seed_field(domain, "diagonal(d1)").flat)
index = classify_stationary(system, res.x)[0]
solvers = scipy_modules()
from nematicq import critical_alpha, solve_branches
branches = [dataclasses.astuple(p) for p in solve_branches(7.5)]
alpha = critical_alpha()
print(json.dumps(dict(converged=res.converged, index=index, solvers=solvers,
                      branches=branches, alpha=alpha, after=scipy_modules())))
"""


def run(script: str):
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_solvers_load_no_scipy_beyond_linalg_and_maier_saupe_loads_the_rest():
    baseline = set(run(BASELINE))
    out = run(SOLVERS)
    assert out["converged"] and out["index"] == 0
    assert set(out["solvers"]) - baseline == set()
    assert not any(m.startswith(("scipy.optimize", "scipy.integrate")) for m in out["solvers"])
    # the first Maier-Saupe calls load what they use, with the in-process results bit for bit
    assert out["branches"] == [list(dataclasses.astuple(p)) for p in solve_branches(7.5)]
    assert out["alpha"] == list(critical_alpha())
    assert {"scipy.optimize", "scipy.integrate"} <= set(out["after"])
