"""Transform pair: trivial anchors, invariants, and the direct-summation oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsync import dft, idft

from oracles import direct_dft, direct_idft

RTOL = 1e-9


def _random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_impulse_transforms_to_constant():
    np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-15)


def test_constant_transforms_to_scaled_impulse():
    np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)


def test_idft_of_scaled_impulse_is_constant():
    np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-15)


@pytest.mark.parametrize("n", [4, 64, 128, 1024, 4096])
def test_roundtrip_identity(n):
    rng = np.random.default_rng(n)
    x = _random_vector(rng, n)
    back = idft(dft(x))
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < RTOL


@pytest.mark.parametrize("n", [4, 64, 128, 1024, 12, 100])
def test_parseval_under_chosen_scaling(n):
    rng = np.random.default_rng(100 + n)
    x = _random_vector(rng, n)
    time_energy = np.sum(np.abs(x) ** 2)
    spectral_energy = np.sum(np.abs(dft(x)) ** 2) / n
    assert abs(time_energy - spectral_energy) / time_energy < RTOL


def test_linearity():
    rng = np.random.default_rng(3)
    x = _random_vector(rng, 64)
    y = _random_vector(rng, 64)
    a, b = 1.7 - 0.3j, -0.2 + 2.1j
    combined = dft(a * x + b * y)
    separate = a * dft(x) + b * dft(y)
    assert np.max(np.abs(combined - separate)) / np.max(np.abs(separate)) < RTOL


@pytest.mark.parametrize("n", [4, 64, 128, 1024])
def test_fast_path_matches_direct_summation_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        x = _random_vector(rng, n)
        expected = direct_dft(x)
        actual = dft(x)
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) < RTOL


@pytest.mark.parametrize("n", [3, 12, 100])
def test_general_length_direct_path(n):
    rng = np.random.default_rng(300 + n)
    x = _random_vector(rng, n)
    np.testing.assert_allclose(dft(x), direct_dft(x), rtol=0, atol=1e-9 * n)
    np.testing.assert_allclose(idft(x), direct_idft(x), rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [8, 128, 100])
def test_cross_check_against_numpy(n):
    rng = np.random.default_rng(400 + n)
    x = _random_vector(rng, n)
    np.testing.assert_allclose(dft(x), np.fft.fft(x), rtol=0, atol=1e-9 * n)
    np.testing.assert_allclose(idft(x), np.fft.ifft(x), rtol=0, atol=1e-9)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        dft([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        idft([np.inf, 0.0])


def test_empty_and_non_vector_rejected():
    with pytest.raises(ValueError):
        dft([])
    with pytest.raises(ValueError):
        dft(np.ones((2, 2)))


def test_idft_of_stack_equals_per_row_transform():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((4, 128)) + 1j * rng.standard_normal((4, 128))
    rows = idft(stack)
    assert rows.shape == (4, 128)
    for row, spectrum in zip(rows, stack):
        assert np.array_equal(row, idft(spectrum))


def test_idft_rejects_3d_input():
    with pytest.raises(ValueError, match="2-D stack"):
        idft(np.ones((2, 2, 4)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 4, 8, 16, 32, 64, 6, 10, 24]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    x = _random_vector(rng, n)
    back = idft(dft(x))
    assert np.max(np.abs(back - x)) <= RTOL * max(1.0, np.max(np.abs(x)))
