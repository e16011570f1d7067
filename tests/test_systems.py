"""The base-class block evaluations and the finite-difference Hessian product."""

import numpy as np

from nematicq.systems import default_probe_length, make_rng
from nematicq.toys import Quartic2D


class CountingQuartic(Quartic2D):
    def __init__(self):
        self.blocks = []
        self.n_grad = 0

    def gradient(self, x):
        self.n_grad += 1
        return super().gradient(x)

    def gradients(self, xs):
        self.blocks.append(np.shape(xs))
        return super().gradients(xs)


def test_default_blocks_loop_over_rows():
    sy = Quartic2D()
    xs = make_rng(1, "test:systems").normal(size=(4, 2))
    assert np.array_equal(sy.energies(xs), [sy.energy(x) for x in xs])
    assert np.array_equal(sy.gradients(xs), [sy.gradient(x) for x in xs])


def test_hessian_vec_takes_both_probes_in_one_block():
    sy = CountingQuartic()
    x, v = np.array([0.3, -1.2]), np.array([0.7, 0.4])
    hv = sy.hessian_vec(x, v)
    assert sy.blocks == [(2, 2)] and sy.n_grad == 2
    l = default_probe_length(x, v)
    assert np.array_equal(hv, (sy.gradient(x + l * v) - sy.gradient(x - l * v)) / (2.0 * l))

