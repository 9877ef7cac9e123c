import numpy as np
import pytest

from hallrep import sampling


def test_blocks_cover_range_in_order():
    spans = list(sampling.blocks(100_001))
    assert spans[0] == (0, sampling.BLOCK)
    assert spans[-1] == (3 * sampling.BLOCK, 100_001 - 3 * sampling.BLOCK)
    assert [start for start, _ in spans] == [sum(count for _, count in spans[:i]) for i in range(len(spans))]


@pytest.mark.parametrize("n_coords", [1, 2, 3])
def test_block_concatenation_matches_monolithic(n_coords):
    whole = sampling.gaussian_block(42, n_coords, 0, 1000)
    pieces = [
        sampling.gaussian_block(42, n_coords, start, min(256, 1000 - start))
        for start in range(0, 1000, 256)
    ]
    assert np.array_equal(np.concatenate(pieces), whole)


def test_same_seed_reproduces_exactly():
    a = sampling.gaussian_block(7, 2, 0, 512)
    b = sampling.gaussian_block(7, 2, 0, 512)
    assert np.array_equal(a, b)
    c = sampling.gaussian_block(8, 2, 0, 512)
    assert not np.array_equal(a, c)


def test_target_density_moments():
    # density exp(-|z|^2)/pi per coordinate: E|z|^2 = 1, E z = 0
    z = sampling.gaussian_block(0, 1, 0, 200_000).ravel()
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(z)) < 0.01


def test_misaligned_offset_rejected():
    with pytest.raises(ValueError, match="4-aligned"):
        sampling.gaussian_block(0, 3, 1, 10)
