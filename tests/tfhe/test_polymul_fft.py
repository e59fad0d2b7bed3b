"""Adversarial and boundary tests for the exact split-float-FFT multiplier.

``TorusFFT`` is checked against the CRT-NTT oracle (``TorusNTT``) and the
O(N^2) reference at the extremes of its proven domain: every digit at
``±Bg/2``, coefficients at 0, ``±2**31`` and ``2**32 - 1``, ring degrees
256 to 2048, and the set-I (6 rows, Bg = 2^7) and set-II (2 rows,
Bg = 2^23) external-product shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.params import PARAM_SET_I, PARAM_SET_II, TEST_PARAMS
from repro.tfhe.polymul import (
    TorusFFT,
    TorusNTT,
    get_torus_multiplier,
    get_torus_ntt,
    negacyclic_mul_reference,
)
from repro.tfhe.torus import to_centered_int64

#: (rows, digit bound) of the set-I and set-II external products.
SHAPES = {
    "set-I": (2 * PARAM_SET_I.decomp_length, PARAM_SET_I.bg // 2),
    "set-II": (2 * PARAM_SET_II.decomp_length, PARAM_SET_II.bg // 2),
}
RING_DEGREES = (256, 1024, 2048)
#: Torus32 coefficients at the edges of the centered range, as int64.
EXTREME_COEFFS = (0, 1 << 31, -(1 << 31), (1 << 32) - 1, (1 << 31) - 1, 1)


def _digits(pattern, rows, n, bound, seed):
    rng = np.random.default_rng(seed)
    if pattern == "max":
        return np.full((rows, n), bound, dtype=np.int64)
    if pattern == "min":
        return np.full((rows, n), -bound, dtype=np.int64)
    if pattern == "alternating":
        signs = np.where(np.arange(n) % 2 == 0, 1, -1)
        return np.tile(signs * bound, (rows, 1)).astype(np.int64)
    return rng.choice([-bound, bound], size=(rows, n)).astype(np.int64)


def _coeffs(pattern, rows, n, seed):
    rng = np.random.default_rng(seed)
    if pattern == "extremes":
        return rng.choice(EXTREME_COEFFS, size=(rows, n)).astype(np.int64)
    if pattern == "uniform":
        return rng.integers(0, 1 << 32, (rows, n), dtype=np.int64)
    return np.full((rows, n), EXTREME_COEFFS[pattern], dtype=np.int64)


def _negacyclic_int(u, v):
    """Exact int64 negacyclic product (inputs small enough not to wrap)."""
    n = u.shape[0]
    full = np.convolve(u, v)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out


def _signed_limbs(v, limbs, bits):
    """Independent signed limb split of Torus32 values (centered)."""
    v = to_centered_int64((v % (1 << 32)).astype(np.uint32))
    out = []
    for _ in range(limbs - 1):
        d = ((v + (1 << (bits - 1))) % (1 << bits)) - (1 << (bits - 1))
        out.append(d)
        v = (v - d) >> bits
    out.append(v)
    return out


patterns = st.sampled_from(["max", "min", "alternating", "signs"])
coeff_patterns = st.sampled_from(
    ["extremes", "uniform"] + list(range(len(EXTREME_COEFFS))))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(RING_DEGREES),
    shape=st.sampled_from(sorted(SHAPES)),
    digit_pattern=patterns,
    coeff_pattern=coeff_patterns,
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_matches_ntt_and_reference_at_extremes(
        n, shape, digit_pattern, coeff_pattern, seed):
    rows, bound = SHAPES[shape]
    fft = get_torus_multiplier(n, rows, bound)
    assert isinstance(fft, TorusFFT)
    ntt = get_torus_ntt(n)
    u = _digits(digit_pattern, rows, n, bound, seed)
    v_mask = _coeffs(coeff_pattern, rows, n, seed)
    v_body = _coeffs(coeff_pattern, rows, n, seed + 1)[::-1].copy()
    got = fft.mul_sum_multi(u, [fft.spectrum(v_mask), fft.spectrum(v_body)])

    def centered(v):
        return to_centered_int64((v % (1 << 32)).astype(np.uint32))

    want = ntt.mul_sum_multi(
        u, [ntt.spectrum(centered(v_mask)), ntt.spectrum(centered(v_body))])
    for g, w in zip(got, want):
        assert g.dtype == np.uint32
        np.testing.assert_array_equal(g, w)
    # the O(N^2) reference, wherever its int64 convolution cannot wrap
    if rows * n * bound * (1 << 31) < 1 << 63:
        expected = np.zeros(n, dtype=np.uint32)
        for j in range(rows):
            expected = expected + negacyclic_mul_reference(
                u[j], (v_mask[j] % (1 << 32)).astype(np.uint32))
        np.testing.assert_array_equal(got[0], expected)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(RING_DEGREES),
    shape=st.sampled_from(sorted(SHAPES)),
    digit_pattern=patterns,
    coeff_pattern=coeff_patterns,
    seed=st.integers(0, 2**32 - 1),
)
def test_error_bound_covers_observed_error(
        n, shape, digit_pattern, coeff_pattern, seed):
    rows, bound = SHAPES[shape]
    fft = get_torus_multiplier(n, rows, bound)
    u = _digits(digit_pattern, rows, n, bound, seed)
    v = _coeffs(coeff_pattern, rows, n, seed)
    unrounded = fft.accumulate(u, [fft.spectrum(v)])[0]
    limbs = [_signed_limbs(v[j], fft.limbs, fft.limb_bits) for j in range(rows)]
    for k in range(fft.limbs):
        exact = sum(_negacyclic_int(u[j], limbs[j][k]) for j in range(rows))
        assert np.abs(exact).max() < 1 << 52
        observed = float(np.abs(unrounded[k] - exact).max())
        assert observed <= fft.error_bound < 0.5


@pytest.mark.parametrize("params, limbs", [
    (TEST_PARAMS, 2), (PARAM_SET_I, 2), (PARAM_SET_II, 4)])
def test_selector_picks_fewest_safe_limbs(params, limbs):
    rows, bound = 2 * params.decomp_length, params.bg // 2
    mult = get_torus_multiplier(params.ring_degree, rows, bound)
    assert isinstance(mult, TorusFFT)
    assert mult.limbs == limbs and mult.error_bound <= 0.25
    with pytest.raises(ValueError):
        TorusFFT(params.ring_degree, rows, bound, limbs - 1)


def test_binary_key_row_needs_one_limb():
    for n in RING_DEGREES:
        mult = get_torus_multiplier(n, 1, 1)
        assert isinstance(mult, TorusFFT) and mult.limbs == 1


def test_no_safe_split_falls_back_to_ntt():
    # N = 2^12 with four rows of 2^22 digits: even four 8-bit limbs leave
    # an error bound above 1/4, while the CRT-NTT still holds 2**67
    n, rows, bound = 4096, 4, 1 << 22
    for limbs in range(1, 5):
        with pytest.raises(ValueError):
            TorusFFT(n, rows, bound, limbs)
    mult = get_torus_multiplier(n, rows, bound)
    assert isinstance(mult, TorusNTT) and mult is get_torus_ntt(n)


def test_shape_beyond_every_exact_path_raises():
    with pytest.raises(ValueError, match="no exact torus multiplier"):
        get_torus_multiplier(1 << 16, 8, 1 << 22)


def test_over_bound_digit_raises():
    n, rows, bound = 1024, 6, 64
    fft = get_torus_multiplier(n, rows, bound)
    spec = fft.spectrum(np.ones((rows, n), dtype=np.int64))
    u = np.full((rows, n), -bound, dtype=np.int64)
    fft.mul_sum(u, spec)                       # the bound itself is fine
    u[3, 17] = -(bound + 1)
    with pytest.raises(ValueError, match="exceeds the proven bound"):
        fft.mul_sum(u, spec)
    u[3, 17] = bound + 1
    with pytest.raises(ValueError, match="exceeds the proven bound"):
        fft.mul_sum_multi(u, [spec, spec])


def test_extra_rows_and_foreign_spectra_raise():
    n, rows, bound = 256, 6, 128
    fft = get_torus_multiplier(n, rows, bound)
    u = np.zeros((rows + 1, n), dtype=np.int64)
    with pytest.raises(ValueError, match="rows exceed"):
        fft.mul_sum(u, fft.spectrum(np.zeros((rows + 1, n), dtype=np.int64)))
    # a CRT-NTT spectrum has the same shape but is not an FFT spectrum
    ntt_spec = get_torus_ntt(n).spectrum(np.zeros((rows, n), dtype=np.int64))
    with pytest.raises(ValueError, match="not a"):
        fft.mul_sum(u[:rows], ntt_spec)


def test_spectra_match_ntt_shape_and_bytes():
    n, rows = PARAM_SET_I.ring_degree, 2 * PARAM_SET_I.decomp_length
    v = np.zeros((rows, n), dtype=np.int64)
    fft_spec = get_torus_multiplier(n, rows, PARAM_SET_I.bg // 2).spectrum(v)
    ntt_spec = get_torus_ntt(n).spectrum(v)
    assert fft_spec.shape == ntt_spec.shape == (2, rows, n)
    assert fft_spec.nbytes == ntt_spec.nbytes
