"""Key generation reuses NTT-form secrets without changing a single key.

``make_switching_key`` callers now pass ``s`` and ``s'`` in NTT form,
transformed once per generator and once per key type, and the
``P * g_t * s'`` term is a per-channel scalar multiple of the NTT-form
``s'``.  The per-digit formula it replaced is written out below as the
oracle: with the same seed, every key must match it byte for byte (same
RNG draw order, same arithmetic mod each prime).
"""

import numpy as np
import pytest

from repro import seedexp
from repro.bfv.params import BFVParams
from repro.bfv.scheme import BFVKeyGenerator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.rns.rns_poly import RNSPoly, RNSRing
from repro.seedexp import SeedExpander, digit_stream

SEED = 20240611
EXPAND_SEED = 77


def _restrict(ring, poly, primes):
    idx = np.array([poly.primes.index(q) for q in primes], dtype=np.intp)
    return RNSPoly(ring, poly.data[idx], tuple(primes), poly.ntt_form)


def _per_digit_key(ring, s_to_full, s_from_full, chain, special, digits,
                   rng, error_std, expander, prefix):
    """Switching key with every secret transformed on every call and the
    ``P * g_t * s'`` term transformed once per digit."""
    extended = tuple(chain) + tuple(special)
    q_product = int(np.prod([int(q) for q in chain], dtype=object))
    p_product = int(np.prod([int(p) for p in special], dtype=object))
    s_to = _restrict(ring, s_to_full, extended).to_ntt()
    s_from = _restrict(ring, s_from_full, extended)
    pairs = []
    for t, digit in enumerate(digits):
        digit_product = int(np.prod([int(q) for q in digit], dtype=object))
        q_hat = q_product // digit_product
        g = (q_hat * pow(q_hat, -1, digit_product)) % q_product
        pg = (p_product * g) % (q_product * p_product)
        if expander is not None:
            a = expander.uniform_rns(
                ring, extended, digit_stream(prefix, t)).to_ntt()
        else:
            a = ring.sample_uniform(rng, primes=extended).to_ntt()
        e = ring.sample_error(rng, primes=extended, sigma=error_std).to_ntt()
        keyed = s_from.mul_channel_scalars(
            [pg % q for q in extended]).to_ntt()
        pairs.append((-(a * s_to) + e + keyed, a))
    return pairs


def _assert_same_pairs(got, expected):
    assert len(got) == len(expected)
    for (b, a), (b_ref, a_ref) in zip(got, expected):
        assert b.primes == b_ref.primes and b.ntt_form and a.ntt_form
        assert b.data.tobytes() == b_ref.data.tobytes()
        assert a.data.tobytes() == a_ref.data.tobytes()


@pytest.mark.parametrize("expand_seed", [None, EXPAND_SEED])
def test_ckks_keys_match_the_per_digit_formula(expand_seed):
    params = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
    elements = [pow(5, 1, 2 * params.n), 2 * params.n - 1]
    keygen = CKKSKeyGenerator(params, np.random.default_rng(SEED),
                              expand_seed=expand_seed)
    relin = keygen.relin_key()
    galois = keygen.galois_key(elements)
    public = keygen.public_key()

    rng = np.random.default_rng(SEED)
    ring = RNSRing(params.n, params.all_primes)
    expander = SeedExpander(expand_seed) if expand_seed is not None else None
    s = ring.sample_ternary(rng, primes=params.all_primes,
                            hamming_weight=params.hamming_weight)

    def level_pairs(s_from, level, prefix):
        return _per_digit_key(
            ring, s, s_from, params.primes_at_level(level),
            params.special_primes, params.digits_at_level(level), rng,
            params.error_std, expander, prefix)

    s_squared = (s * s).to_coeff()
    for level in range(params.num_levels + 1):
        _assert_same_pairs(
            relin.levels[level].pairs,
            level_pairs(s_squared, level,
                        seedexp.relin_stream("ckks", level)))
    for g in elements:
        s_g = s.automorphism(g)
        for level in range(params.num_levels + 1):
            _assert_same_pairs(
                galois.keys[(g, level)].pairs,
                level_pairs(s_g, level,
                            seedexp.galois_stream("ckks", g, level)))

    base = params.base_primes
    if expander is not None:
        a = expander.uniform_rns(ring, base, seedexp.pk_stream("ckks"))
    else:
        a = ring.sample_uniform(rng, primes=base)
    e = ring.sample_error(rng, primes=base, sigma=params.error_std)
    b = -(a * _restrict(ring, s, base)) + e
    assert public.b.data.tobytes() == b.data.tobytes()
    assert public.a.data.tobytes() == a.data.tobytes()


def test_bfv_keys_match_the_per_digit_formula():
    params = BFVParams(n=64, num_primes=3, dnum=2, hamming_weight=16)
    keygen = BFVKeyGenerator(params, np.random.default_rng(SEED))
    relin = keygen.relin_key()
    galois = keygen.galois_keys([3, 2 * params.n - 1])

    rng = np.random.default_rng(SEED)
    ring = RNSRing(params.n, params.all_primes)
    s = ring.sample_ternary(rng, primes=params.all_primes,
                            hamming_weight=params.hamming_weight)

    def pairs(s_from, prefix):
        return _per_digit_key(
            ring, s, s_from, params.ct_primes, params.special_primes,
            params.digits(), rng, params.error_std, None, prefix)

    _assert_same_pairs(relin.pairs, pairs((s * s).to_coeff(), ""))
    for g in (3, 2 * params.n - 1):
        _assert_same_pairs(galois.keys[g], pairs(s.automorphism(g), ""))
