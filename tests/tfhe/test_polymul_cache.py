"""Bounds for the TorusNTT and multiplier-selector caches (the plan-cache
rule, applied here)."""

import numpy as np

from repro.tfhe.polymul import TorusFFT, get_torus_multiplier, get_torus_ntt


def test_torus_ntt_cache_is_bounded():
    maxsize = get_torus_ntt.cache_info().maxsize
    assert maxsize is not None, "get_torus_ntt: unbounded lru_cache"
    assert maxsize >= 4


def test_torus_ntt_cache_evicts_at_the_bound():
    get_torus_ntt.cache_clear()
    maxsize = get_torus_ntt.cache_info().maxsize
    sizes = [1 << (k + 1) for k in range(maxsize + 3)]
    for n in sizes:
        get_torus_ntt(n)
    info = get_torus_ntt.cache_info()
    assert info.currsize == maxsize          # bounded, not monotone
    assert info.misses == maxsize + 3
    # the oldest ring degree was evicted: re-asking is a fresh miss ...
    a = get_torus_ntt(sizes[0])
    assert get_torus_ntt.cache_info().misses == maxsize + 4
    # ... and the recomputed basis carries the same CRT primes
    b = get_torus_ntt(sizes[0])
    assert a is b and a.primes == (a.p1, a.p2)
    get_torus_ntt.cache_clear()


def test_evicted_basis_recomputes_identically():
    get_torus_ntt.cache_clear()
    u = np.arange(-4, 4, dtype=np.int64)[None, :]
    v = np.arange(8, dtype=np.int64)[None, :] * (1 << 20)
    first = get_torus_ntt(8).mul_sum(u, get_torus_ntt(8).spectrum(v))
    for k in range(get_torus_ntt.cache_info().maxsize + 2):
        get_torus_ntt(1 << (4 + k))          # flush n=8 out
    again = get_torus_ntt(8).mul_sum(u, get_torus_ntt(8).spectrum(v))
    np.testing.assert_array_equal(first, again)
    get_torus_ntt.cache_clear()


def test_torus_multiplier_cache_is_bounded():
    maxsize = get_torus_multiplier.cache_info().maxsize
    assert maxsize is not None, "get_torus_multiplier: unbounded lru_cache"
    assert maxsize >= 4


def test_torus_multiplier_cache_evicts_at_the_bound():
    get_torus_multiplier.cache_clear()
    maxsize = get_torus_multiplier.cache_info().maxsize
    shapes = [(1 << (k % 8 + 1), 1 + k // 8, 1) for k in range(maxsize + 3)]
    for shape in shapes:
        get_torus_multiplier(*shape)
    info = get_torus_multiplier.cache_info()
    assert info.currsize == maxsize          # bounded, not monotone
    assert info.misses == maxsize + 3
    # the oldest shape was evicted: re-asking is a fresh miss ...
    a = get_torus_multiplier(*shapes[0])
    assert get_torus_multiplier.cache_info().misses == maxsize + 4
    # ... and the reselected multiplier proves the same split
    b = get_torus_multiplier(*shapes[0])
    fresh = TorusFFT(*shapes[0], a.limbs)
    assert a is b and a.error_bound == fresh.error_bound
    get_torus_multiplier.cache_clear()


def test_evicted_multiplier_recomputes_identically():
    get_torus_multiplier.cache_clear()
    u = np.arange(-4, 4, dtype=np.int64)[None, :]
    v = np.arange(8, dtype=np.int64)[None, :] * (1 << 20)

    def product():
        mult = get_torus_multiplier(8, 1, 4)
        return mult.mul_sum(u, mult.spectrum(v))

    first = product()
    for k in range(get_torus_multiplier.cache_info().maxsize + 2):
        get_torus_multiplier(16, 1, 1 + k)   # flush (8, 1, 4) out
    np.testing.assert_array_equal(first, product())
    get_torus_multiplier.cache_clear()
