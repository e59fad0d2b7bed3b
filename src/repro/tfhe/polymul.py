"""Exact negacyclic polynomial products for TFHE.

TFHE's blind rotation multiplies small-integer polynomials (gadget digits,
``|d| <= Bg/2``; the binary ring key in TRLWE encryption) by Torus32
polynomials.  Two exact multipliers share one interface — ``spectrum``,
``mul_sum``, ``mul_sum_multi`` and ``multiply`` — and
:func:`get_torus_multiplier` picks one from the shape alone:

* :class:`TorusFFT`, the fast path.  A folded negacyclic complex FFT of size
  ``N/2`` (``numpy.fft``) with a ``2N``-th-root twist.  The Torus32 operand
  is split into signed limbs (two 16-bit limbs at paper set I) so that each
  limb's accumulated product is small enough for a proven worst-case bound
  on the floating-point convolution error (:func:`fft_error_bound`) to stay
  below 1/2.  Rounding each limb to int64 and recombining the limbs mod
  2**32 then gives the exact product.  TFHE-lib and TFHE-rs run the same
  FFT but absorb its rounding error into the ciphertext noise; here it is
  zero, so the path is bit-identical to the CRT-NTT.
* :class:`TorusNTT`, the fallback and differential oracle.  An exact CRT-NTT
  over two 36-bit primes through the kernel backend, the NTT substrate
  Alchemist accelerates.  True accumulated coefficients are bounded by
  ``rows * N * digit_bound * 2**31`` (``2**66`` at set II), far below the
  CRT modulus ``p1 * p2 > 2**71``.  The centered CRT lift exceeds 64 bits,
  so it is carried out modulo 2**64 (wrapping uint64) with the sign decided
  in floating point: attainable values sit within ``p1*p2/4`` of either end
  of ``[0, p1*p2)``, so the float error cannot flip the decision.

A reference O(N^2) convolution path is provided for cross-checking.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Union

import numpy as np

from repro.kernels import get_backend
from repro.ntmath.modular import invmod, mulmod, submod
from repro.ntmath.primes import generate_ntt_prime
from repro.tfhe.torus import from_int64

_MASK32 = np.uint64(0xFFFFFFFF)

#: Unit roundoff of IEEE binary64.
_EPS = 2.0 ** -53
#: Assumed worst-case absolute error of every precomputed root of unity —
#: numpy's FFT twiddles and the twist table are accurate to a few ulps.
_ROOT_ERR = 2.0 ** -50
#: A split is accepted only if its error bound is at most this: half of the
#: 1/2 that rounding to the nearest integer tolerates.
_ERROR_LIMIT = 0.25
#: Exact limb sums must stay below this so float64 holds them exactly.
_EXACT_LIMIT = 1 << 52
#: Most limbs tried before falling back.  Spectra take ``limbs/2`` times
#: the CRT-NTT's memory, so this caps a bootstrapping key's spectra at
#: twice their CRT-NTT size (even 16 limbs would still run faster).
_MAX_LIMBS = 4


def fft_error_bound(n: int, rows: int, digit_bound: int,
                    limb_bound: int) -> float:
    """Proven worst-case error of one limb of :meth:`TorusFFT.mul_sum_multi`.

    Percival's bound (C. Percival, "Rapid multiplication modulo the sum and
    difference of highly composite numbers", Math. Comp. 72 (2003),
    Theorem 5.1) for a floating-point FFT convolution of length ``2**k`` is
    ``|z' - z|_inf < |x| |y| ((1+e)^3k (1+e*sqrt5)^(3k+1) (1+b)^3k - 1)``
    with unit roundoff ``e`` and root error ``b``.  Here ``2**k = N/2``; the
    twist of both operands and the untwist of the result add three complex
    multiplications by a rounded root, and summing ``rows`` spectral
    products adds ``rows - 1`` roundings.  The folded operands have
    Euclidean norms at most ``sqrt(N) * digit_bound`` and
    ``sqrt(N) * limb_bound``, summed over ``rows`` row products.
    """
    k = (n // 2).bit_length() - 1
    log_growth = ((3 * k + rows - 1) * math.log1p(_EPS)
                  + (3 * k + 4) * math.log1p(_EPS * math.sqrt(5.0))
                  + (3 * k + 3) * math.log1p(_ROOT_ERR))
    return rows * n * digit_bound * limb_bound * math.expm1(log_growth)


def _split_is_exact(n: int, rows: int, digit_bound: int, limbs: int) -> bool:
    """Whether ``limbs`` signed limbs of ``ceil(32/limbs)`` bits make the
    FFT product exact: limb sums below 2**52, error bound at most 1/4."""
    limb_bound = 1 << (-(-32 // limbs) - 1)
    return (rows * n * digit_bound * limb_bound < _EXACT_LIMIT
            and fft_error_bound(n, rows, digit_bound, limb_bound)
            <= _ERROR_LIMIT)


class TorusFFT:
    """Exact negacyclic multiply-accumulate over Torus32 by split float FFT.

    Valid for at most ``rows`` rows of digits bounded by ``digit_bound`` in
    magnitude; the constructor proves the split exact for that shape and
    raises ``ValueError`` otherwise.  Spectra are complex128 values stored
    as interleaved float64 pairs, shape ``(limbs, ..., n)`` — the same
    shape and byte size as the two-prime CRT-NTT spectra at two limbs.
    """

    def __init__(self, n: int, rows: int, digit_bound: int, limbs: int):
        if n < 2 or n & (n - 1):
            raise ValueError("ring degree must be a power of two >= 2")
        if rows < 1 or digit_bound < 1 or not 1 <= limbs <= 32:
            raise ValueError("rows, digit bound and limbs must be positive")
        self.n = n
        self.rows = rows
        self.digit_bound = digit_bound
        self.limbs = limbs
        self.limb_bits = -(-32 // limbs)
        limb_bound = 1 << (self.limb_bits - 1)
        self.error_bound = fft_error_bound(n, rows, digit_bound, limb_bound)
        if not _split_is_exact(n, rows, digit_bound, limbs):
            raise ValueError(
                f"{limbs}-limb FFT is not exact for N={n}, {rows} rows, "
                f"digits up to {digit_bound} (error bound "
                f"{self.error_bound:.3g})")
        half = n // 2
        # j/n is exact, so each angle carries one rounding
        self._twist = np.exp(1j * (np.pi * (np.arange(half) / n)))
        self._untwist = np.conj(self._twist)
        self._weights = np.array(
            [1 << (i * self.limb_bits) for i in range(limbs)], dtype=np.int64)

    # ------------------------------------------------------------------ #

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of Torus32 polys given as int64 (any
        representative mod 2**32); shape ``(limbs, ..., n)`` float64."""
        return self._forward(self._split(values)).view(np.float64)

    def mul_sum(self, u: np.ndarray, v_spec: np.ndarray) -> np.ndarray:
        """``sum_j u[j] (*) v[j]`` (negacyclic), returned as Torus32.

        ``u``: ``(rows, n)`` small centered int64 polynomials.
        ``v_spec``: ``(limbs, rows, n)`` spectra from :meth:`spectrum`.
        """
        return self.mul_sum_multi(u, [v_spec])[0]

    def mul_sum_multi(self, u: np.ndarray, v_specs) -> list:
        """``mul_sum`` against several spectra sharing one forward pass."""
        # exact integers after rounding; the weighted limb sum wraps in
        # int64, which keeps its low 32 bits: the product mod 2**32
        limbs = np.rint(self.accumulate(u, v_specs)).astype(np.int64)
        out = (limbs * self._weights[:, None]).sum(axis=1)
        return list(out.astype(np.uint32))

    def accumulate(self, u: np.ndarray, v_specs) -> np.ndarray:
        """Unrounded per-limb products ``sum_j u[j] (*) limb_l(v[j])``,
        shape ``(len(v_specs), limbs, n)``; each entry is within
        :attr:`error_bound` of an integer below 2**52 in magnitude."""
        u = np.asarray(u, dtype=np.int64)
        if u.ndim == 1:
            u = u[None, :]
        rows = u.shape[0]
        if rows > self.rows:
            raise ValueError(f"{rows} rows exceed the proven {self.rows}")
        peak = int(np.abs(u).max()) if u.size else 0
        if peak > self.digit_bound:
            raise ValueError(
                f"digit {peak} exceeds the proven bound {self.digit_bound}")
        for v_spec in v_specs:
            if (v_spec.shape != (self.limbs, rows, self.n)
                    or v_spec.dtype != np.float64):
                raise ValueError(
                    f"spectrum {v_spec.dtype}{v_spec.shape} is not a "
                    f"({self.limbs} limbs, {rows} rows) FFT spectrum"
                )
        u_spec = self._forward(u)
        accs = np.empty((len(v_specs), self.limbs, self.n // 2),
                        dtype=np.complex128)
        for k, v_spec in enumerate(v_specs):
            np.sum(v_spec.view(np.complex128) * u_spec, axis=1, out=accs[k])
        z = np.fft.ifft(accs, axis=-1)
        z *= self._untwist
        return np.concatenate([z.real, z.imag], axis=-1)

    def multiply(self, u: np.ndarray, v_torus: np.ndarray) -> np.ndarray:
        """Single negacyclic product of small-int ``u`` and Torus32 ``v``."""
        spec = self.spectrum(np.asarray(v_torus, dtype=np.int64)[None, :])
        return self.mul_sum(np.asarray(u, dtype=np.int64)[None, :], spec)

    # ------------------------------------------------------------------ #

    def _split(self, values: np.ndarray) -> np.ndarray:
        """Centered residues mod 2**32 as ``limbs`` signed digits of
        ``limb_bits`` bits, each at most ``2**(limb_bits-1)`` in magnitude."""
        v = np.asarray(values, dtype=np.int64).astype(np.int32).astype(
            np.int64)
        out = np.empty((self.limbs,) + v.shape, dtype=np.int64)
        half = 1 << (self.limb_bits - 1)
        mask = (1 << self.limb_bits) - 1
        for i in range(self.limbs - 1):
            out[i] = ((v + half) & mask) - half
            v = (v - out[i]) >> self.limb_bits
        out[-1] = v
        return out

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Fold ``(..., n)`` reals to ``a_j + i a_{j+n/2}``, twist, FFT."""
        half = self.n // 2
        z = np.empty(x.shape[:-1] + (half,), dtype=np.complex128)
        z.real = x[..., :half]
        z.imag = x[..., half:]
        z *= self._twist
        return np.fft.fft(z, axis=-1)


class TorusNTT:
    """Batched exact negacyclic multiply-accumulate over Torus32."""

    def __init__(self, n: int):
        self.n = n
        self.p1 = generate_ntt_prime(36, n, seed_offset=0)
        self.p2 = generate_ntt_prime(36, n, seed_offset=1)
        #: The dual-prime CRT basis handed to the kernel backend; every
        #: backend transforms it bit-exact equal to per-prime contexts.
        self.primes = (self.p1, self.p2)
        self.p1_inv_mod_p2 = np.uint64(invmod(self.p1, self.p2))
        self.product = self.p1 * self.p2
        self._half_product_float = float(self.product) / 2.0
        self._product_mod32 = np.uint64(self.product % (1 << 32))

    # ------------------------------------------------------------------ #

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of centered int64 polys; shape ``(2, ..., n)``."""
        values = np.asarray(values, dtype=np.int64)
        r1 = np.mod(values, self.p1).astype(np.uint64)
        r2 = np.mod(values, self.p2).astype(np.uint64)
        return get_backend().ntt_forward(np.stack([r1, r2]), self.primes)

    def mul_sum(self, u: np.ndarray, v_spec: np.ndarray) -> np.ndarray:
        """``sum_j u[j] (*) v[j]`` (negacyclic), returned as Torus32.

        ``u``: ``(rows, n)`` small centered int64 polynomials.
        ``v_spec``: ``(2, rows, n)`` spectra from :meth:`spectrum`.
        """
        return self.mul_sum_multi(u, [v_spec])[0]

    def mul_sum_multi(self, u: np.ndarray, v_specs) -> list:
        """``mul_sum`` against several spectra sharing one forward pass.

        The TFHE external product multiplies the *same* decomposed digit
        rows against both the mask and body spectra of the TRGSW rows —
        sharing the forward NTT halves the transform count (this is also
        what the hardware does: the digit rows are transformed once).
        """
        u = np.asarray(u, dtype=np.int64)
        if u.ndim == 1:
            u = u[None, :]
        rows = u.shape[0]
        for v_spec in v_specs:
            if v_spec.shape != (2, rows, self.n):
                raise ValueError(
                    f"spectrum shape {v_spec.shape} does not match "
                    f"({rows} rows)"
                )
        backend = get_backend()
        fwd = backend.ntt_forward(
            np.stack(
                [np.mod(u, self.p1).astype(np.uint64),
                 np.mod(u, self.p2).astype(np.uint64)]
            ),
            self.primes,
        )
        accs = np.empty((2, len(v_specs), self.n), dtype=np.uint64)
        for k, v_spec in enumerate(v_specs):
            prod = backend.pointwise_mul(fwd, v_spec, self.primes)
            # accumulate over rows: summands < 2**36, hundreds of rows fit
            accs[0, k] = prod[0].sum(axis=0, dtype=np.uint64) % np.uint64(self.p1)
            accs[1, k] = prod[1].sum(axis=0, dtype=np.uint64) % np.uint64(self.p2)
        inv = backend.ntt_inverse(accs, self.primes)
        return [
            self._crt_to_torus(inv[0, k], inv[1, k])
            for k in range(len(v_specs))
        ]

    def multiply(self, u: np.ndarray, v_torus: np.ndarray) -> np.ndarray:
        """Single negacyclic product of small-int ``u`` and Torus32 ``v``."""
        from repro.tfhe.torus import to_centered_int64

        spec = self.spectrum(to_centered_int64(v_torus)[None, :])
        return self.mul_sum(np.asarray(u, dtype=np.int64)[None, :], spec)

    # ------------------------------------------------------------------ #

    def _crt_to_torus(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Centered CRT lift of (r1 mod p1, r2 mod p2), reduced mod 2**32.

        The true lift ``v = r1 + p1*t`` can reach 72 bits; we compute it
        wrapping mod 2**64 (exact for the low 32 bits we need) and decide
        the sign of the centered representative in floating point, where the
        ~2**19 float error is negligible against the >2**69 gap between
        attainable values and the midpoint.
        """
        t = mulmod(
            submod(np.mod(r2, np.uint64(self.p2)),
                   np.mod(r1, np.uint64(self.p2)), self.p2),
            self.p1_inv_mod_p2,
            self.p2,
        )
        v_low64 = r1 + np.uint64(self.p1) * t          # wraps mod 2**64
        v_float = r1.astype(np.float64) + float(self.p1) * t.astype(np.float64)
        negative = v_float > self._half_product_float
        low32 = v_low64 & _MASK32
        correction = self._product_mod32 * negative
        out = (low32 + (np.uint64(1) << np.uint64(32)) - correction) & _MASK32
        return out.astype(np.uint32)


@lru_cache(maxsize=8)
def get_torus_ntt(n: int) -> TorusNTT:
    """Cached per-ring-degree CRT-NTT basis.

    Bounded: deployed TFHE parameter sets use a handful of ring degrees
    (1024 and 2048 in the paper's two sets); eight distinct degrees is
    already exotic, and each entry holds two 36-bit prime table sets."""
    return TorusNTT(n)


TorusMultiplier = Union[TorusFFT, TorusNTT]


@lru_cache(maxsize=16)
def get_torus_multiplier(n: int, rows: int, digit_bound: int) -> TorusMultiplier:
    """The exact multiplier for ``rows`` rows of digits ``|d| <= digit_bound``.

    Returns the :class:`TorusFFT` with the fewest limbs whose proven error
    bound (:func:`fft_error_bound`) stays at most 1/4 and whose limb sums
    stay below 2**52; when no split up to four limbs is safe, the cached
    :class:`TorusNTT`.  Raises ``ValueError`` when even the CRT-NTT could
    not hold the accumulated product exactly.

    Bounded: a parameter set asks for two shapes per ring degree (the
    external product's ``2l`` rows of ``Bg/2`` digits and the single binary
    key row of TRLWE encryption), so sixteen entries cover eight degrees.
    """
    for limbs in range(1, _MAX_LIMBS + 1):
        if _split_is_exact(n, rows, digit_bound, limbs):
            return TorusFFT(n, rows, digit_bound, limbs)
    ntt = get_torus_ntt(n)
    if rows * n * digit_bound * (1 << 31) >= ntt.product // 4:
        raise ValueError(
            f"no exact torus multiplier for N={n}, {rows} rows, "
            f"digits up to {digit_bound}")
    return ntt


def negacyclic_mul_reference(u: np.ndarray, v_torus: np.ndarray) -> np.ndarray:
    """Exact O(n^2) negacyclic product of a small-int poly and a Torus32
    poly (reference for testing the NTT path)."""
    from repro.tfhe.torus import to_centered_int64

    u = np.asarray(u, dtype=np.int64)
    v = to_centered_int64(v_torus)
    n = u.shape[0]
    full = np.convolve(u, v)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return from_int64(out)
