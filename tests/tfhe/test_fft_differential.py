"""Differential: the selected split-FFT multiplier against the CRT-NTT oracle.

The FFT path is exact, so every TRLWE encryption, gate bootstrap and
multi-value bootstrap must be bit-identical whichever multiplier runs.  The
oracle is reached by monkeypatching the selector (there is no runtime
option that picks a multiplier).
"""

import numpy as np
import pytest

from repro.tfhe import trgsw, trlwe
from repro.tfhe.bootstrap import (
    BootstrapKit,
    make_lut_test_polynomial,
    make_sign_test_polynomial,
)
from repro.tfhe.gates import MU, TFHEGates
from repro.tfhe.params import PARAM_SET_I, PARAM_SET_II, TEST_PARAMS
from repro.tfhe.polymul import TorusFFT, get_torus_ntt
from repro.tfhe.torus import encode_message
from repro.tfhe.trlwe import TrlweKey, trlwe_decrypt_phase, trlwe_encrypt

GATES = ("nand", "and", "or", "nor", "xor", "xnor")


def _ntt_oracle(n, rows, digit_bound):
    return get_torus_ntt(n)


def _use_oracle(patch):
    patch.setattr(trgsw, "get_torus_multiplier", _ntt_oracle)
    patch.setattr(trlwe, "get_torus_multiplier", _ntt_oracle)


def _lwe_equal(a, b):
    return np.array_equal(a.a, b.a) and int(a.b) == int(b.b)


def test_selected_paths_are_fft():
    for params in (TEST_PARAMS, PARAM_SET_I, PARAM_SET_II):
        assert isinstance(trgsw.external_multiplier(params), TorusFFT)
        assert isinstance(trlwe.key_multiplier(params.ring_degree), TorusFFT)


@pytest.mark.parametrize("params", [TEST_PARAMS, PARAM_SET_I, PARAM_SET_II])
def test_trlwe_round_trip_matches_ntt_multiply(params, monkeypatch):
    n = params.ring_degree
    key = TrlweKey.generate(params, np.random.default_rng(1))
    msg = encode_message(np.arange(n) % 4, 4)
    ct = trlwe_encrypt(msg, key, np.random.default_rng(2))
    phase = trlwe_decrypt_phase(ct, key)
    ntt = get_torus_ntt(n)
    np.testing.assert_array_equal(ct.b - ntt.multiply(key.key, ct.a), phase)
    with monkeypatch.context() as patch:
        _use_oracle(patch)
        ct_ntt = trlwe_encrypt(msg, key, np.random.default_rng(2))
        phase_ntt = trlwe_decrypt_phase(ct_ntt, key)
    np.testing.assert_array_equal(ct.a, ct_ntt.a)
    np.testing.assert_array_equal(ct.b, ct_ntt.b)
    np.testing.assert_array_equal(phase, phase_ntt)


def _run_gates(seed):
    """Six seeded gates and one multi-value bootstrap on a fresh kit."""
    kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(seed))
    gates = TFHEGates(kit)
    bits = np.random.default_rng(seed + 1).integers(0, 2, (len(GATES), 2))
    outputs = []
    for name, (a, b) in zip(GATES, bits):
        x, y = gates.encrypt_bit(bool(a)), gates.encrypt_bit(bool(b))
        outputs.append(getattr(gates, f"gate_{name}")(x, y))
    tv = make_lut_test_polynomial(kit.params, lambda p: 0.25 - p)
    outputs += kit.multi_value_bootstrap(kit.encrypt(MU), tv, [0, 3, 17, 200])
    return kit, outputs


def test_gates_and_multi_value_bootstrap_bit_identical(monkeypatch):
    kit_fft, out_fft = _run_gates(0x51)
    with monkeypatch.context() as patch:
        _use_oracle(patch)
        kit_ntt, out_ntt = _run_gates(0x51)
    assert kit_ntt.bootstrap_key.trgsw_samples[0].spectra_a.dtype == np.uint64
    for g_fft, g_ntt in zip(kit_fft.bootstrap_key.trgsw_samples,
                            kit_ntt.bootstrap_key.trgsw_samples):
        for r_fft, r_ntt in zip(g_fft.rows, g_ntt.rows):
            np.testing.assert_array_equal(r_fft.a, r_ntt.a)
            np.testing.assert_array_equal(r_fft.b, r_ntt.b)
    assert len(out_fft) == len(out_ntt) == len(GATES) + 4
    for got, want in zip(out_fft, out_ntt):
        assert _lwe_equal(got, want)


def test_set_one_blind_rotation_bit_identical(monkeypatch):
    kit = BootstrapKit(PARAM_SET_I, np.random.default_rng(0x52))
    sample = kit.encrypt(MU)
    tv = make_sign_test_polynomial(kit.params, MU)
    acc_fft = kit.blind_rotate(sample, tv)
    with monkeypatch.context() as patch:
        _use_oracle(patch)
        for gsw in kit.bootstrap_key.trgsw_samples:   # NTT spectra, lazily
            gsw.spectra_a = gsw.spectra_b = None
        acc_ntt = kit.blind_rotate(sample, tv)
    np.testing.assert_array_equal(acc_fft.a, acc_ntt.a)
    np.testing.assert_array_equal(acc_fft.b, acc_ntt.b)
