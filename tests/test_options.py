"""The settable surface of the solvers and the command line.

Step control, line-search constants and tolerances are fixed inside the
solvers; only the fields, parameters and CLI flags below can be set.
Adding one is a deliberate change to this test.
"""

import argparse
import inspect
from dataclasses import fields

from nematicq.cli import build_parser
from nematicq.energy import SineSolver
from nematicq.fieldio import RunConfig
from nematicq.hedgehog import solve_profile
from nematicq.hisd import (
    LandscapeOptions,
    SaddleOptions,
    branch_search,
    classify_stationary,
    hisd_step,
    make_record,
)
from nematicq.mep import find_mep, reparametrize
from nematicq.minimize import MinimizeOptions
from nematicq.sav import flow_to_equilibrium
from nematicq.spectrum import lobpcg, operator_scale, smallest_eigs, solve_smallest


def names(cls):
    return [f.name for f in fields(cls)]


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_option_fields():
    # a saddle search's step budget is the constant hisd._MAX_ITERS
    assert names(SaddleOptions) == ["tol_grad"]
    assert names(MinimizeOptions) == ["tol_grad", "max_iters", "project"]
    assert names(LandscapeOptions) == ["search", "max_nodes", "max_searches", "max_index"]
    assert names(RunConfig) == [
        "nx", "ny", "lambda2", "a", "b", "c", "L2", "L3", "boundary", "seed", "tol", "dt",
        "init", "out_dir", "max_steps", "n_nodes", "k", "max_nodes", "max_searches", "max_index",
    ]


def test_spectrum_and_certificate_parameters():
    assert params(smallest_eigs) == ["system", "x", "k"]
    assert params(solve_smallest) == ["apply_h", "n", "k", "precond"]
    assert params(operator_scale) == ["apply_h", "n"]
    # its iteration budget is the constant spectrum._MAXITER
    assert params(lobpcg) == ["apply_h", "x", "k", "tol", "precond"]
    assert params(classify_stationary) == ["system", "x", "tol_grad", "k_hint"]
    assert params(make_record) == ["system", "x", "tol_grad", "k_hint"]
    assert params(branch_search) == ["system", "origin", "k", "opts", "errors_out"]
    assert params(solve_profile) == ["p", "R", "N"]


def test_string_and_step_parameters():
    assert params(reparametrize) == ["p"]
    assert params(find_mep) == ["a", "b", "n_nodes", "tol", "system", "ts_tol"]
    assert params(hisd_step) == ["system", "state", "dt", "grad"]
    assert params(flow_to_equilibrium) == ["init", "dt", "tol_grad", "max_steps", "trace"]


def test_l1_operator_parameters():
    # L1 is fixed by its domain; the only freedom of a solve is the shift
    assert params(SineSolver.__init__) == ["self", "domain"]
    assert params(SineSolver.solve) == ["self", "r", "shift"]


def cli_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: sorted(opt for act in p._actions for opt in act.option_strings if opt not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }


def test_cli_flags():
    field_run = ["--config", "--out", "--seed"]
    assert cli_flags() == {
        "minimize": field_run,
        "flow": field_run,
        "string": sorted(field_run + ["--toy", "--field-a", "--field-b", "--n-nodes", "--tol"]),
        "saddle": sorted(field_run + ["--toy", "--k", "--init", "--tol"]),
        "landscape": sorted(field_run + ["--toy"]),
        "maier-saupe": ["--alpha", "--gamma1", "--out"],
        "hedgehog": ["--a", "--b", "--c", "--n-intervals", "--out", "--radius", "-N", "-R"],
    }
