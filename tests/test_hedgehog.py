"""Radial hedgehog boundary value problem."""

import numpy as np
import pytest

from nematicq.errors import ValidationError
from nematicq.hedgehog import HedgehogProfile, ode_residual, solve_profile
from nematicq.qtensor import BulkParams, critical_points

BULK = BulkParams(-1.0, 1.0, 1.0)


class TestSolveProfile:
    def test_boundary_values_exact(self):
        prof = solve_profile(BULK, R=10.0, N=128)
        assert prof.h[0] == 0.0
        assert prof.h[-1] == critical_points(BULK).s_plus
        assert prof.r[0] == 0.0
        assert prof.r[-1] == 10.0

    def test_interior_residual_small(self):
        prof = solve_profile(BULK, R=10.0, N=128)
        assert prof.residual < 1e-8
        # recompute independently of the solver's bookkeeping
        assert np.abs(ode_residual(prof, BULK)).max() < 1e-8

    def test_second_order_self_convergence(self):
        sols = {n: solve_profile(BULK, R=10.0, N=n) for n in (128, 256, 512)}
        e_coarse = np.abs(sols[128].h - sols[256].h[::2]).max()
        e_fine = np.abs(sols[256].h - sols[512].h[::2]).max()
        order = np.log2(e_coarse / e_fine)
        assert order >= 1.9

    def test_profile_monotone(self):
        prof = solve_profile(BULK, R=10.0, N=256)
        assert np.all(np.diff(prof.h) >= -1e-12)

    def test_core_ratio_bounded(self):
        # the regular core branch scales as h ~ C r^2, so h/r stays
        # bounded (indeed vanishes) and h/r^2 approaches a constant
        prof = solve_profile(BULK, R=10.0, N=512)
        ratios = prof.h[1:] / prof.r[1:]
        assert np.all(np.isfinite(ratios))
        assert ratios.max() < 10.0 * prof.s_plus
        quad = prof.h[1:4] / prof.r[1:4] ** 2
        assert abs(quad[0] - quad[1]) < 0.05 * abs(quad[0])
        assert abs(quad[1] - quad[2]) < 0.05 * abs(quad[1])

    def test_other_parameters_and_radius(self):
        p = BulkParams(-0.5, 1.5, 2.0)
        prof = solve_profile(p, R=6.0, N=128)
        assert prof.residual < 1e-8
        assert prof.h[-1] == critical_points(p).s_plus
        assert np.all(np.diff(prof.h) >= -1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            solve_profile(BULK, R=0.0, N=128)
        for radius in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="positive and finite"):
                solve_profile(BULK, R=radius, N=128)
        with pytest.raises(ValidationError):
            solve_profile(BULK, R=10.0, N=32)

    def test_profile_record_fields(self):
        prof = solve_profile(BULK, R=10.0, N=128)
        assert isinstance(prof, HedgehogProfile)
        assert prof.n_intervals == 128
        assert prof.r.shape == prof.h.shape == (129,)
        assert prof.s_plus == critical_points(BULK).s_plus
