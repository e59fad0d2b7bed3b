"""Vectorized modular arithmetic for moduli up to 46 bits.

The FHE schemes in this repository use RNS primes of at most 36 bits (the
word size the paper adopts from SHARP [11]) and the exact negacyclic NTT used
by the TFHE substrate uses 44-bit primes.  Both fit the fast ``numpy.uint64``
path implemented here.

The multiplication trick (float-assisted Barrett): the quotient
``floor(a * b / q)`` is estimated in double precision and the remainder is
recovered with wrapping ``uint64`` arithmetic.  For ``q < 2**42`` the
quotient is below ``2**42`` while the accumulated float rounding error is
below ``2**-9``, so the estimate is off by at most one; the two conditional
fix-ups afterwards make the result exact.  This replaces the division-based
split-word path (three ``%`` reductions per call) with one integer multiply,
one float multiply and two compare/subtract sweeps.  It is the product of
the reference NTT and of every batched pointwise/Bconv kernel; the batched
NTT (:class:`repro.poly.ntt.MultiNTTContext`) uses a lazy variant with a
biased quotient and no fix-ups.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Largest modulus bit-width supported by the vectorized fast path.
MAX_FAST_MODULUS_BITS = 42

_SIGN_BIT = np.uint64(1) << np.uint64(63)

ArrayLike = Union[int, np.ndarray]


def _check_modulus(q: int) -> None:
    if q <= 1:
        raise ValueError(f"modulus must be > 1, got {q}")
    if q.bit_length() > MAX_FAST_MODULUS_BITS:
        raise ValueError(
            f"modulus {q} has {q.bit_length()} bits; the fast path supports "
            f"at most {MAX_FAST_MODULUS_BITS} bits"
        )


def to_mod_array(values, q: int) -> np.ndarray:
    """Convert ``values`` (ints, possibly negative or arbitrarily large) to a
    uint64 array reduced into ``[0, q)``.
    """
    _check_modulus(q)
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "i":
            return np.mod(arr.astype(np.int64), q).astype(np.uint64)
        if arr.dtype.kind == "u":
            return np.mod(arr.astype(np.uint64), np.uint64(q))
    except OverflowError:
        pass
    # Slow exact path: elements that do not fit a 64-bit machine word.
    obj = np.asarray(values, dtype=object)
    reduced = [int(v) % q for v in obj.ravel()]
    return np.array(reduced, dtype=np.uint64).reshape(obj.shape)


def addmod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a + b) mod q`` for inputs already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    qq = np.uint64(q)
    return s - qq * (s >= qq)


def submod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a - b) mod q`` for inputs already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    s = a + (qq - b)
    return s - qq * (s >= qq)


def negmod(a: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(-a) mod q`` for input already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    qq = np.uint64(q)
    return np.where(a == 0, np.uint64(0), qq - a)


def mulmod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a * b) mod q``, exact for ``q < 2**46``.

    Inputs must already be reduced into ``[0, q)``.
    """
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    # Quotient estimate in float64: |error| < 2**-9 for q < 2**42, so the
    # floored estimate is off by at most 1 in either direction.
    quot = (a.astype(np.float64) * b.astype(np.float64) * (1.0 / q)).astype(
        np.uint64
    )
    # Remainder via wrapping uint64 arithmetic: the true value lies in
    # (-q, 2q), so the low 64 bits identify it exactly.  numpy warns on the
    # intentional wraparound for 0-d inputs; the result is still exact.
    with np.errstate(over="ignore"):
        r = a * b - quot * qq
        r += qq * (r >= _SIGN_BIT)   # quotient overestimated: r wrapped negative
        r -= qq * (r >= qq)          # quotient underestimated
    return r


# --------------------------------------------------------------------- #
# Channel-wise variants: the modulus is an *array* broadcast against the
# operands, so one numpy call reduces every RNS limb at once.  These are the
# primitives the batched kernel backend (:mod:`repro.kernels`) is built on.
# Arithmetic is identical to the scalar-modulus functions above — for the
# same ``q`` the float quotient estimate and the fix-up sweeps perform the
# exact same operations — so results are bit-identical per channel.
# --------------------------------------------------------------------- #


def channel_moduli(primes, extra_dims: int = 1):
    """``(q, 1/q)`` arrays shaped ``(C, 1, ..., 1)`` for channel broadcast.

    ``extra_dims`` is the number of trailing axes of the operands after the
    channel axis (1 for ``(C, n)`` data, 2 for ``(C, batch, n)``, ...).
    """
    q = np.asarray([int(p) for p in primes], dtype=np.uint64)
    for p in primes:
        _check_modulus(int(p))
    shape = (len(primes),) + (1,) * extra_dims
    q = q.reshape(shape)
    return q, 1.0 / q.astype(np.float64)


def addmod_channels(a: np.ndarray, b: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(a + b) mod q`` with array modulus ``qq``."""
    s = a + b
    return s - qq * (s >= qq)


def submod_channels(a: np.ndarray, b: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(a - b) mod q`` with array modulus ``qq``."""
    s = a + (qq - b)
    return s - qq * (s >= qq)


def negmod_channels(a: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(-a) mod q`` with array modulus ``qq``."""
    return np.where(a == 0, np.uint64(0), qq - a)


def mulmod_channels(
    a: np.ndarray, b: np.ndarray, qq: np.ndarray, q_inv: np.ndarray
) -> np.ndarray:
    """Channel-wise ``(a * b) mod q`` (float-assisted Barrett, array modulus).

    ``qq``/``q_inv`` come from :func:`channel_moduli`; inputs must already be
    reduced into ``[0, q)`` per channel.
    """
    quot = (a.astype(np.float64) * b.astype(np.float64) * q_inv).astype(
        np.uint64
    )
    with np.errstate(over="ignore"):
        r = a * b - quot * qq
        r += qq * (r >= _SIGN_BIT)
        r -= qq * (r >= qq)
    return r


def mulmod_scalar(a: int, b: int, q: int) -> int:
    """Scalar ``(a * b) mod q`` using Python big ints (any modulus size)."""
    return (a * b) % q


def powmod(base: int, exp: int, q: int) -> int:
    """Scalar ``base ** exp mod q`` (supports negative exponents if invertible)."""
    if exp < 0:
        return pow(invmod(base, q), -exp, q)
    return pow(base, exp, q)


def invmod(a: int, q: int) -> int:
    """Modular inverse of ``a`` modulo ``q``; raises if not invertible."""
    a = a % q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {q}")
    return pow(a, -1, q)


def powmod_array(base: int, exps: np.ndarray, q: int) -> np.ndarray:
    """Vector of ``base ** exps[i] mod q`` computed by repeated squaring.

    ``exps`` must be non-negative integers.  Used for twiddle-factor tables.
    """
    _check_modulus(q)
    exps = np.asarray(exps, dtype=np.uint64)
    result = np.ones(exps.shape, dtype=np.uint64)
    cur = np.uint64(base % q)
    remaining = exps.copy()
    while np.any(remaining):
        odd = (remaining & np.uint64(1)).astype(bool)
        if np.any(odd):
            result[odd] = mulmod(result[odd], cur, q)
        remaining >>= np.uint64(1)
        cur = np.uint64(mulmod_scalar(int(cur), int(cur), q))
    return result


def centered(a: ArrayLike, q: int) -> np.ndarray:
    """Map values in [0, q) to the centered representative in (-q/2, q/2]."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    half = np.uint64(q // 2)
    out = a.astype(np.int64)
    wrap = a > half
    out[wrap] -= np.int64(q)
    return out
