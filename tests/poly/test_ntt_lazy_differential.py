"""Adversarial differential suite: lazy batched NTT vs the per-limb oracle.

``MultiNTTContext`` (Harvey butterflies, float quotients, narrow stages in
a transposed layout) must equal the per-limb ``NTTContext`` transforms bit
for bit at every ring degree from 2 to 2^14 — both sides of the layout
threshold — on 42-bit primes (the top of the lazy bound) and on the
HELR chain, for extreme, sparse and random inputs, with and without a
batch axis.
"""

import numpy as np
import pytest

from repro.ckks.params import CKKSParams
from repro.ntmath.primes import generate_ntt_prime, is_prime
from repro.poly.ntt import MultiNTTContext, get_context, get_multi_context

SIZES = [1 << k for k in range(1, 15)]
BATCH = 3


def _inputs(primes, n, seed):
    """Named ``(C, n)`` inputs: all zero, all ``q-1``, one spike, random."""
    rng = np.random.default_rng(seed)
    q = np.array(primes, dtype=np.uint64)[:, None]
    spike = np.zeros((len(primes), n), dtype=np.uint64)
    spike[:, rng.integers(0, n)] = q[:, 0] - np.uint64(1)
    return {
        "zero": np.zeros((len(primes), n), dtype=np.uint64),
        "max": np.broadcast_to(q - np.uint64(1), (len(primes), n)).copy(),
        "spike": spike,
        "random": np.stack([rng.integers(0, p, size=n, dtype=np.uint64)
                            for p in primes]),
    }


def _check_against_oracle(primes, n, seed):
    multi = MultiNTTContext(n, primes)
    oracles = [get_context(n, q) for q in primes]
    for name, data in _inputs(primes, n, seed).items():
        batched = np.stack([data] * BATCH, axis=1)
        batched[:, 1] = data[:, ::-1]
        for x in (data, batched):
            original = x.copy()
            fwd = multi.forward(x)
            inv = multi.inverse(x)
            assert np.array_equal(x, original), (n, name, "input written")
            assert fwd.shape == x.shape and inv.shape == x.shape
            for c, oracle in enumerate(oracles):
                assert np.array_equal(fwd[c], oracle.forward(x[c])), (n, name)
                assert np.array_equal(inv[c], oracle.inverse(x[c])), (n, name)
            assert np.array_equal(multi.inverse(fwd), x), (n, name)


@pytest.mark.parametrize("n", SIZES)
def test_42_bit_primes_match_the_per_limb_oracle(n):
    primes = tuple(generate_ntt_prime(42, n, seed_offset=i) for i in range(3))
    _check_against_oracle(primes, n, seed=n)


def test_helr_chain_matches_the_per_limb_oracle():
    params = CKKSParams(n=1 << 13, num_levels=8, dnum=3)
    _check_against_oracle(params.all_primes, params.n, seed=13)


def test_prime_outside_the_lazy_bound_is_rejected_at_build():
    n = 1 << 10
    q = generate_ntt_prime(43, n)
    assert q.bit_length() == 43 and is_prime(q)
    with pytest.raises(ValueError, match=r"4q < 2\^44"):
        MultiNTTContext(n, (generate_ntt_prime(42, n), q))
    with pytest.raises(ValueError, match=r"4q < 2\^44"):
        get_multi_context(n, (q,))
    # The largest admissible prime builds and transforms exactly.
    top = generate_ntt_prime(42, n)
    assert 4 * top < 1 << 44
    _check_against_oracle((top,), n, seed=1)
