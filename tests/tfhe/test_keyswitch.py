"""The vectorized LWE keyswitch against the per-digit loop it replaced."""

import numpy as np
import pytest

from repro.tfhe.bootstrap import KeyswitchKey
from repro.tfhe.lwe import LweSample
from repro.tfhe.params import PARAM_SET_I, TEST_PARAMS
from repro.tfhe.torus import TORUS_MODULUS


def keyswitch_loop(ksk: KeyswitchKey, sample: LweSample) -> LweSample:
    """Reference: subtract one key row per nonzero digit, level by level."""
    params = ksk.params
    t, base_bit, base = params.ks_length, params.ks_base_bit, params.ks_base
    n = ksk.out_dim
    acc_a = np.zeros(n, dtype=np.uint32)
    acc_b = int(sample.b)
    offset = (np.uint32(1 << (31 - t * base_bit)) if t * base_bit < 32
              else np.uint32(0))
    a_round = sample.a + offset
    for j in range(t):
        shift = np.uint64(32 - (j + 1) * base_bit)
        digits = ((a_round.astype(np.uint64) >> shift)
                  & np.uint64(base - 1)).astype(np.int64)
        for i in np.nonzero(digits)[0]:
            row = ksk.table[i, j, int(digits[i]) - 1]
            acc_a -= row[:n]
            acc_b -= int(row[n])
    return LweSample(acc_a, np.uint32(acc_b % TORUS_MODULUS))


def _random_sample(rng, dim):
    a = rng.integers(0, 1 << 32, dim, dtype=np.int64).astype(np.uint32)
    return LweSample(a, np.uint32(rng.integers(0, 1 << 32)))


def _assert_same(got, want):
    assert got.a.dtype == want.a.dtype == np.uint32
    np.testing.assert_array_equal(got.a, want.a)
    assert int(got.b) == int(want.b)


def test_keyswitch_matches_loop_on_real_key(tfhe_kit, rng):
    ksk = tfhe_kit.keyswitch_key
    for _ in range(5):
        sample = _random_sample(rng, ksk.table.shape[0])
        _assert_same(ksk.keyswitch(sample), keyswitch_loop(ksk, sample))


@pytest.mark.parametrize("params", [TEST_PARAMS, PARAM_SET_I])
def test_keyswitch_matches_loop_at_full_shape(params, rng):
    # the keyswitch is arithmetic on the table, so a uniform table at the
    # full (N, t, base-1, n+1) shape exercises every wrap a real key can
    shape = (params.ring_degree, params.ks_length, params.ks_base - 1,
             params.lwe_dim + 1)
    table = rng.integers(0, 1 << 32, shape, dtype=np.int64).astype(np.uint32)
    ksk = KeyswitchKey(params, table, params.lwe_dim)
    samples = [_random_sample(rng, params.ring_degree) for _ in range(5)]
    samples.append(LweSample(np.zeros(params.ring_degree, np.uint32),
                             np.uint32(7)))
    samples.append(LweSample(np.full(params.ring_degree, 0xFFFFFFFF,
                                     np.uint32), np.uint32(0xFFFFFFFF)))
    for sample in samples:
        _assert_same(ksk.keyswitch(sample), keyswitch_loop(ksk, sample))
