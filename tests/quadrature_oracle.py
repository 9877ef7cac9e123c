"""Test-side Gauss-Hermite oracle for the one-level hierarchy wavefunction.

The library takes the auxiliary integral in closed form, pi*a0*prod_j (-z_j)
(conjugated when b = -1); this integrates the auxiliary coordinate
numerically against its Gaussian weight, as an independent reference.

As an oracle the quadrature has a limit: where prod_j z_j is small, its node
values cancel to the much smaller constant term, and the error relative to
|value| reaches 1.1e-11 at a0 = 7, n_electrons = 4.  Past n_electrons = 3,
compare it pointwise with the closed form against the size of the integrand,
not at 1e-12 of the value.  numpy's weights overflow from order 371 on.
"""

import math
from functools import lru_cache

import numpy as np

from hallrep.wavefunctions import _auxiliary_decay_rate, _jastrow_batch, as_config


@lru_cache(maxsize=None)
def _hermite_rule(order: int):
    return np.polynomial.hermite.hermgauss(order)


def _auxiliary_integral(spec, z: np.ndarray, quad_order: int) -> complex:
    """int d2w e^{-|q1||w|^2} prod_j (w - z_j), conjugated when b = -1.

    Tensor Gauss-Hermite on both axes of w; the integrand is polynomial in
    w, so the rule is exact once 2*quad_order exceeds the electron count.
    """
    rate = _auxiliary_decay_rate(spec.a0)
    nodes, weights = _hermite_rule(quad_order)
    scale = 1.0 / math.sqrt(rate)
    w = scale * (nodes[:, None] + 1j * nodes[None, :]).ravel()
    w2d = (weights[:, None] * weights[None, :]).ravel() / rate
    factors = np.prod(w[:, None] - z[None, :], axis=1)
    out = complex(factors @ w2d)
    return out.conjugate() if spec.b == -1 else out


def hierarchy_r1_quadrature(spec, config, quad_order: int = 32) -> complex:
    """Hierarchy wavefunction value with the auxiliary integral taken by quad_order^2 nodes."""
    z = as_config(config, spec.n_electrons)
    value = (
        _jastrow_batch(z[None, :], spec.a0)[0]
        * _auxiliary_integral(spec, z, quad_order)
        * math.exp(-0.5 * float(np.sum(np.abs(z) ** 2)))
    )
    return complex(value)
