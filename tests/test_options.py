"""The settable surface of the solvers.

Step control, line-search constants and tolerances are fixed inside the
solvers; only the fields and parameters below can be set.  Adding one
is a deliberate change to this test.
"""

import inspect
from dataclasses import fields

from nematicq.hisd import LandscapeOptions, SaddleOptions
from nematicq.minimize import MinimizeOptions, certify_stability
from nematicq.spectrum import smallest_eigs


def names(cls):
    return [f.name for f in fields(cls)]


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_option_fields():
    assert names(SaddleOptions) == ["tol_grad", "max_iters", "seed", "refresh_every"]
    assert names(MinimizeOptions) == ["tol_grad", "max_iters", "project"]
    assert names(LandscapeOptions) == ["search", "max_nodes", "max_searches", "max_index"]


def test_spectrum_and_certificate_parameters():
    assert params(smallest_eigs) == ["system", "x", "k", "seed", "v0"]
    assert params(certify_stability) == ["system", "x", "tol_grad"]
