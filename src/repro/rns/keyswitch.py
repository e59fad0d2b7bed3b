"""Scheme-agnostic hybrid (dnum-digit) keyswitching over RNS polynomials.

Both RLWE-based schemes in this repository (CKKS and BFV) relinearize and
rotate through the same construction — the one Alchemist's Modup /
DecompPolyMult / Moddown operators accelerate:

* a switching key from secret ``s'`` to secret ``s`` holds, per digit ``t``
  of the chain, a pair over the extended basis ``Q * P``::

      ksk_t = ( -a_t * s + e_t + P * g_t * s',   a_t )
      g_t   = (Q / Q_t) * [(Q / Q_t)^{-1}]_{Q_t}   mod Q

* switching a polynomial ``d`` decomposes it into digit residues, Modups
  each digit to ``Q * P``, accumulates ``sum_t ModUp(d_t) * ksk_t`` in the
  NTT domain (DecompPolyMult), and Moddowns by ``P``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rns.bconv import bconv
from repro.rns.rns_poly import RNSPoly, RNSRing
from repro.seedexp import SeedExpander, digit_stream


def restrict_channels(ring: RNSRing, poly: RNSPoly, primes) -> RNSPoly:
    """Project a polynomial onto a subset of its channels (by prime)."""
    primes = tuple(primes)
    index = {q: i for i, q in enumerate(poly.primes)}
    try:
        idx = np.array([index[q] for q in primes], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"polynomial has no channel for prime {exc}") from exc
    # One fancy-indexed gather (always a fresh copy) instead of a Python
    # list-of-rows stack.
    return RNSPoly(ring, poly.data[idx], primes, poly.ntt_form)


def make_switching_key(
    ring: RNSRing,
    s_to_full: RNSPoly,
    s_from_full: RNSPoly,
    chain: Sequence[int],
    special: Sequence[int],
    digits: Sequence[Sequence[int]],
    rng: np.random.Generator,
    error_std: float,
    expander: Optional[SeedExpander] = None,
    stream_prefix: str = "",
) -> List[Tuple[RNSPoly, RNSPoly]]:
    """Build the per-digit key pairs for switching ``s_from -> s_to``.

    ``s_to_full`` / ``s_from_full`` are held over (a superset of)
    ``chain + special`` in either form; the returned pairs are in NTT form
    over ``chain + special``.  Key generators pass both secrets in NTT
    form, transformed once per generator (``s_to``) and once per key type
    (``s_from``), so a key level costs only the ``a_t`` and ``e_t``
    transforms: the ``P * g_t * s'`` term is a per-channel scalar multiple
    of the NTT-form ``s'``, which equals the transform of the scaled
    coefficients exactly because the NTT is linear mod each prime.

    With an ``expander``, each digit's uniform ``a_t`` comes from the
    deterministic stream ``{stream_prefix}/d{t}`` instead of ``rng`` —
    the seed-expanded key construction: serialization can then drop the
    ``a`` halves and regenerate them from the seed
    (:mod:`repro.serialization`, ``format=seeded/v1``).  The error terms
    still come from ``rng`` (they are the secret, non-regenerable half).
    """
    chain = tuple(int(q) for q in chain)
    special = tuple(int(p) for p in special)
    extended = chain + special
    q_product = 1
    for q in chain:
        q_product *= q
    p_product = 1
    for p in special:
        p_product *= p

    s_to = restrict_channels(ring, s_to_full, extended).to_ntt()
    s_from = restrict_channels(ring, s_from_full, extended).to_ntt()

    pairs = []
    for t, digit in enumerate(digits):
        digit_product = 1
        for q in digit:
            digit_product *= q
        q_hat = q_product // digit_product
        g = (q_hat * pow(q_hat, -1, digit_product)) % q_product
        pg = (p_product * g) % (q_product * p_product)
        if expander is not None:
            a = expander.uniform_rns(
                ring, extended, digit_stream(stream_prefix, t)).to_ntt()
        else:
            a = ring.sample_uniform(rng, primes=extended).to_ntt()
        e = ring.sample_error(rng, primes=extended, sigma=error_std).to_ntt()
        keyed = s_from.mul_channel_scalars([pg % q for q in extended])
        b = -(a * s_to) + e + keyed
        pairs.append((b, a))
    return pairs


def raise_digits(
    ring: RNSRing,
    d: RNSPoly,
    digits: Sequence[Sequence[int]],
    special: Sequence[int],
) -> List[RNSPoly]:
    """ModUp every digit of ``d`` (coefficient form, over its chain) to
    ``chain + special``: the digit's own rows pass through and Bconv fills
    the other channels.  Returns one coefficient-form polynomial per digit."""
    chain = d.primes
    extended = chain + tuple(int(p) for p in special)
    chain_index = {q: i for i, q in enumerate(chain)}
    ext_index = {q: i for i, q in enumerate(extended)}
    raised = []
    for digit in digits:
        digit = tuple(int(q) for q in digit)
        digit_rows = d.data[
            np.array([chain_index[q] for q in digit], dtype=np.intp)
        ]
        others = tuple(q for q in extended if q not in digit)
        converted = bconv(digit_rows, digit, others)
        # Scatter the pass-through digit rows and the converted rows into
        # extended-basis order with two fancy-indexed assignments.
        full = np.empty((len(extended), ring.n), dtype=np.uint64)
        full[np.array([ext_index[q] for q in digit], dtype=np.intp)] = digit_rows
        full[np.array([ext_index[q] for q in others], dtype=np.intp)] = converted
        raised.append(RNSPoly(ring, full, extended, False))
    return raised


def hybrid_keyswitch(
    ring: RNSRing,
    d: RNSPoly,
    digits: Sequence[Sequence[int]],
    special: Sequence[int],
    pairs: Sequence[Tuple[RNSPoly, RNSPoly]],
) -> Tuple[RNSPoly, RNSPoly]:
    """Apply a switching key to ``d`` (over the chain, any form).

    Returns ``(k0, k1)`` over the chain in coefficient form, satisfying
    ``k0 + k1*s ≈ d*s'`` (plus the small Moddown noise).
    """
    if len(digits) != len(pairs):
        raise ValueError(
            f"switching key has {len(pairs)} digits, chain needs {len(digits)}"
        )
    raised = raise_digits(ring, d.to_coeff(), digits, special)
    return decomp_mult_moddown(ring, raised, pairs, len(special))


def decomp_mult_moddown(
    ring: RNSRing,
    raised: Sequence[RNSPoly],
    pairs: Sequence[Tuple[RNSPoly, RNSPoly]],
    special_count: int,
) -> Tuple[RNSPoly, RNSPoly]:
    """DecompPolyMult of raised digits (coefficient form) against key
    pairs in the NTT domain, then Moddown of both accumulators."""
    extended = raised[0].primes
    acc0 = ring.zero(primes=extended, ntt_form=True)
    acc1 = ring.zero(primes=extended, ntt_form=True)
    for d_t, (b_t, a_t) in zip(raised, pairs):
        d_t = d_t.to_ntt()
        acc0 = acc0 + d_t * b_t
        acc1 = acc1 + d_t * a_t
    k0 = acc0.to_coeff().moddown(special_count)
    k1 = acc1.to_coeff().moddown(special_count)
    return k0, k1
