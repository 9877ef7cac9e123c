"""Deterministic complex-Gaussian sample streams for the Monte Carlo paths.

Philox counters make the stream a pure function of (seed, sample index):
coordinate j of sample s always consumes uniforms number 2*(s*n_coords + j)
and the next one, and a polar Box-Muller map turns each pair into one
complex point with density exp(-|z|^2)/pi.  Blocks can be generated in any
order or on any worker; accumulating block results in index order is
therefore bit-identical for every worker count.  The samples do not depend
on the split, but at n >= 3 electrons the Jastrow product's last bits
depend on the batch length, so BLOCK is part of every Monte Carlo result.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["BLOCK", "blocks", "gaussian_block"]

BLOCK = 1 << 15


def _generator_at(seed: int, first_uniform: int) -> Generator:
    # Philox.advance counts 4-output counter steps, so offsets must sit on a
    # multiple of 4 uniform draws.
    if first_uniform % 4:
        raise ValueError(f"stream offset {first_uniform} is not 4-aligned")
    bit_gen = Philox(key=seed)
    bit_gen.advance(first_uniform // 4)
    return Generator(bit_gen)


def gaussian_block(seed: int, n_coords: int, start: int, count: int) -> np.ndarray:
    """Samples start..start+count-1 of the (seed, n_coords) coordinate stream.

    Returns shape (count, n_coords), each entry distributed with density
    exp(-|z|^2)/pi: the squared radius is -log(1 - u1) ~ Exp(1) and the phase
    2*pi*u2.
    """
    gen = _generator_at(seed, start * 2 * n_coords)
    u = gen.random((count, n_coords, 2))
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    return radius * np.exp(2j * np.pi * u[..., 1])


def blocks(n_samples: int):
    """Yield (start, count) pairs of at most BLOCK samples covering 0..n_samples-1 in order."""
    for start in range(0, n_samples, BLOCK):
        yield start, min(BLOCK, n_samples - start)
