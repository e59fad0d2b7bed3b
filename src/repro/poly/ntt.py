"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

Implements the merged-twiddle iterative NTT (Longa–Naehrig style): the
forward transform uses Cooley–Tukey butterflies with the powers of the 2N-th
root ``psi`` folded into the twiddle table (so no separate pre-weighting pass
is needed), and produces bit-reversed output; the inverse uses
Gentleman–Sande butterflies, consumes bit-reversed input, and returns natural
order.

Two implementations share the twiddle tables:

* :class:`NTTContext` — one prime, every butterfly fully reduced with the
  float-assisted Barrett ``mulmod``.  It is the slow, obviously-correct
  oracle (the ``reference`` kernel backend and the differential tests).
* :class:`MultiNTTContext` — every RNS channel at once, the NTT of the
  ``numpy`` and ``pool`` backends.  Harvey's lazy butterflies keep values
  in ``[0, 4q)`` (forward) or ``[0, 2q)`` (inverse) with one correction per
  butterfly; twiddle products take a biased float64 quotient, exact to
  within one below the bound ``4q < 2^44`` that every prime is checked
  against at construction; ``n^-1`` rides in the last inverse stage; and
  the narrow stages (half-width below ``_NARROW``) run on a transposed
  copy of the data, so every ufunc walks contiguous rows.  Outputs are
  bit-identical to :class:`NTTContext`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ntmath.modular import addmod, invmod, mulmod, submod
from repro.ntmath.primes import root_of_unity


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation indices for a power-of-two size ``n``."""
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(bits):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.int64)


def _power_table(base: int, count: int, q: int) -> np.ndarray:
    """Table ``[base**0, base**1, ..., base**(count-1)] mod q`` (vectorized
    doubling construction)."""
    pows = np.ones(count, dtype=np.uint64)
    size = 1
    while size < count:
        step = pow(base, size, q)
        upper = min(2 * size, count)
        pows[size:upper] = mulmod(pows[: upper - size], np.uint64(step), q)
        size *= 2
    return pows


class NTTContext:
    """Precomputed tables and transforms for one ``(n, q)`` pair.

    Parameters
    ----------
    n:
        Ring degree (power of two).
    q:
        NTT-friendly prime with ``q ≡ 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError("ring degree must be a power of two >= 2")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not ≡ 1 mod 2n={2 * n}")
        self.n = n
        self.q = q
        self.psi = root_of_unity(2 * n, q)
        self.psi_inv = invmod(self.psi, q)
        self.n_inv = np.uint64(invmod(n, q))
        rev = bit_reverse_indices(n)
        self.psi_br = _power_table(self.psi, n, q)[rev]
        self.ipsi_br = _power_table(self.psi_inv, n, q)[rev]
        self._rev = rev

    # ------------------------------------------------------------------ #

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT; output is in bit-reversed order.

        ``a`` has shape ``(..., n)`` with values in ``[0, q)``.
        """
        q = self.q
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64)
        shape = a.shape
        if shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        a = a.reshape(-1, n).copy()
        batch = a.shape[0]
        t = n
        m = 1
        while m < n:
            t //= 2
            twiddles = self.psi_br[m : 2 * m][None, :, None]
            view = a.reshape(batch, m, 2 * t)
            u = view[:, :, :t]
            v = mulmod(view[:, :, t:], twiddles, q)
            hi = submod(u, v, q)
            view[:, :, :t] = addmod(u, v, q)
            view[:, :, t:] = hi
            m *= 2
        return a.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; input bit-reversed, output natural order."""
        q = self.q
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64)
        shape = a.shape
        if shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        a = a.reshape(-1, n).copy()
        batch = a.shape[0]
        t = 1
        m = n
        while m > 1:
            h = m // 2
            twiddles = self.ipsi_br[h : 2 * h][None, :, None]
            view = a.reshape(batch, h, 2 * t)
            u = view[:, :, :t].copy()
            v = view[:, :, t:]
            diff = mulmod(submod(u, v, q), twiddles, q)
            view[:, :, :t] = addmod(u, v, q)
            view[:, :, t:] = diff
            t *= 2
            m = h
        a = mulmod(a, self.n_inv, q)
        return a.reshape(shape)

    def to_natural_order(self, a: np.ndarray) -> np.ndarray:
        """Permute a bit-reversed spectrum to natural (frequency) order."""
        return np.take(a, self._rev, axis=-1)

    def negacyclic_eval_points(self) -> np.ndarray:
        """Evaluation points of the natural-order spectrum: ``psi^(2k+1)``.

        The forward transform (after :meth:`to_natural_order`) evaluates the
        polynomial at the odd powers of ``psi`` in index order ``k``.
        """
        exps = 2 * np.arange(self.n, dtype=np.uint64) + np.uint64(1)
        table = _power_table(self.psi, 2 * self.n, self.q)
        return table[exps.astype(np.int64)]

    # ------------------------------------------------------------------ #

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic polynomial product via NTT, pointwise mult, inverse."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(mulmod(fa, fb, self.q))


@lru_cache(maxsize=1024)
def get_context(n: int, q: int) -> NTTContext:
    """Cached :class:`NTTContext` lookup (contexts are expensive to build).

    Bounded: a long-lived serving process walks one ``(n, q)`` key per
    prime per parameter set, and an unbounded cache of twiddle tables is
    a slow memory leak.  1024 covers every chain the repo ships with an
    order of magnitude to spare."""
    return NTTContext(n, q)


#: Stages whose butterfly half-width ``t`` is below this run in the
#: transposed ("lanes") layout: ``(C, B, n/S, S)`` becomes ``(C, B, S, n/S)``
#: with ``S = min(_NARROW, n)``, so the partners ``s`` and ``s + t`` of every
#: S-chunk sit in two contiguous rows of length ``n/S`` instead of runs of
#: ``t`` words, which numpy walks 6-20x slower (t = 8 down to 2).
_NARROW = 16

#: The lazy butterflies keep values below ``4q``, and every prime must
#: satisfy ``4q < 2**_LAZY_BITS``, i.e. ``q < 2**42``: the width the
#: float-assisted ``mulmod`` building the twiddle tables supports, and well
#: inside the range where the float quotient below errs by less than 1.
_LAZY_BITS = 44

#: Scale on ``1/q`` that makes the float quotient a strict under-estimate.
#: The product ``y * (w * (1/q))`` picks up at most three float64 roundings
#: (relative ``3 * 2**-53``); pulling it down by ``2**-50`` more keeps the
#: estimate below the true ``y * w / q``, and within ``11 * 2**-53`` of it
#: relatively, i.e. less than 1 below for ``y * w / q < 4q < 2**44``.  The
#: truncated quotient is then ``floor(y * w / q)`` or one less, and the
#: remainder lands in ``[0, 2q)`` with no correction.
_QUOT_SCALE = 1.0 - 2.0 ** -50


def _check_lazy_bound(q: int) -> None:
    """Reject a prime the lazy kernel cannot transform exactly.  Below the
    bound the float quotient of ``y * w / q < 4q`` errs by at most
    ``4q * 11 * 2**-53 < 2**-5``, so it is ``floor`` or one less."""
    if 4 * q >= 1 << _LAZY_BITS:
        raise ValueError(
            f"prime {q} ({q.bit_length()} bits) is outside the lazy NTT "
            f"bound 4q < 2^{_LAZY_BITS} (q < 2^{_LAZY_BITS - 2}), under which "
            f"the float quotient of a product y*w with y < 4q errs by less "
            f"than 1"
        )


def _lazy_mulmod(y, w, w_quot, q, out, quot, quot_f) -> np.ndarray:
    """``out = y * w mod q`` in ``[0, 2q)`` for ``y < 4q``; ``w_quot`` is
    ``w`` times the scaled ``1/q``.  The float quotient is ``floor(y*w/q)``
    or one less, so the wrapping ``uint64`` remainder is exact with no
    fix-up.  ``quot``/``quot_f`` are uint64/float64 scratch shaped like
    ``y``; ``out`` may be ``y``."""
    np.multiply(y, w_quot, out=quot_f)
    np.copyto(quot.view(np.int64), quot_f, casting="unsafe")   # truncate
    quot *= q
    np.multiply(y, w, out=out)
    out -= quot
    return out


# A transform allocates its buffers once (``_scratch``); the butterflies
# compute into them and write each operand view once.  A fresh temporary
# per ufunc page-faults on every call once arrays pass the allocator's
# mmap threshold (C * n/2 words is 384 KiB at N=2^13, 12 limbs), and an
# in-place ufunc on a strided view costs more than one strided copy.


def _scratch(a: np.ndarray, channels: int):
    """Per-call buffers: three uint64 and one float64 operand half, and a
    uint64/float64 pair for one stage's twiddles (at most ``C * n/2``)."""
    half = a.size // 2
    twiddles = channels * a.shape[-1] // 2
    return (np.empty((3, half), dtype=np.uint64), np.empty(half),
            np.empty(twiddles, dtype=np.uint64), np.empty(twiddles))


def _ct_butterflies(x, y, w, w_quot, q, q2, words, floats) -> None:
    """Harvey Cooley–Tukey butterflies in place: ``x, y < 4q`` become
    ``x + w*y`` and ``x - w*y + 2q``, both again below ``4q``."""
    wy, x_low, high = words.reshape((3,) + x.shape)
    _lazy_mulmod(y, w, w_quot, q, wy, high, floats.reshape(x.shape))
    np.subtract(x, q2, out=x_low)
    np.minimum(x, x_low, out=x_low)    # the one correction: x mod 2q
    np.subtract(x_low, wy, out=high)
    high += q2
    y[...] = high
    np.add(x_low, wy, out=x)


def _gs_butterflies(x, y, w, w_quot, q, q2, words, floats) -> None:
    """Harvey Gentleman–Sande butterflies in place: ``x, y < 2q`` become
    ``(x + y) mod 2q`` and ``(x - y + 2q) * w`` lazily, both below ``2q``."""
    total, diff, low = words.reshape((3,) + x.shape)
    np.add(x, y, out=total)
    np.subtract(x, y, out=diff)
    diff += q2
    np.subtract(total, q2, out=low)
    np.minimum(total, low, out=x)      # the one correction
    y[...] = _lazy_mulmod(diff, w, w_quot, q, diff, low,
                          floats.reshape(x.shape))


def _halves(a: np.ndarray, t: int):
    """Views of the two butterfly operands of the stage with half-width
    ``t``, in either layout (``(C, B, n)`` natural or ``(C, B, S, n/S)``
    lanes); axis 3 of the split view picks the operand."""
    if a.ndim == 3:
        channels, batch, n = a.shape
        split = a.reshape(channels, batch, n // (2 * t), 2, t)
    else:
        channels, batch, lanes, length = a.shape
        split = a.reshape(channels, batch, lanes // (2 * t), 2, t, length)
    return split[:, :, :, 0], split[:, :, :, 1]


def _to_lanes(a: np.ndarray, width: int) -> np.ndarray:
    """A ``(C, B, S, n/S)`` lanes copy (``S = width``) of the natural
    ``(C, B, n)`` array; always a copy, even where the transpose is
    already contiguous (``n <= S``)."""
    channels, batch, n = a.shape
    return np.array(
        a.reshape(channels, batch, n // width, width).transpose(0, 1, 3, 2),
        order="C")


def _from_lanes(lanes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a ``(C, B, S, n/S)`` lanes array back into the natural
    ``(C, B, n)`` array ``out`` and return ``out``."""
    channels, batch, width, length = lanes.shape
    np.copyto(out.reshape(channels, batch, length, width),
              lanes.transpose(0, 1, 3, 2))
    return out


class MultiNTTContext:
    """Batched lazy NTT across several moduli of the same ring degree.

    Stacks the per-prime twiddle tables of :class:`NTTContext` along a
    leading channel axis so one butterfly pass transforms every channel at
    once (modulus broadcast as an array).  The butterflies are Harvey's
    lazy ones — the deferred reduction ``R_j`` of the paper's Meta-OP:
    forward values stay in ``[0, 4q)``, inverse values in ``[0, 2q)``, with
    one correction per butterfly and a single reduction to ``[0, q)`` at
    the end; ``n^-1`` is folded into the last inverse stage.  The quotient
    of each twiddle product comes from a float64 estimate built per stage
    from the ``psi_br``/``ipsi_br`` slice (no extra tables are cached), and
    every prime is checked against the lazy bound ``4q < 2^44`` when the
    context is built.  Stages with half-width below ``_NARROW`` run in a
    transposed layout, so their operands are contiguous rows rather than
    runs of a few words (the transpose of the paper's 4-step NTT, §5.3).

    Results are bit-identical to the per-channel :class:`NTTContext`
    transforms, which stay as the oracle (``tests/poly``).
    """

    def __init__(self, n: int, primes):
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        for q in self.primes:
            _check_lazy_bound(q)
        ctxs = [get_context(n, q) for q in self.primes]
        self.q_arr = np.array(self.primes, dtype=np.uint64)         # (C,)
        #: Scaled ``1/q`` (a strict under-estimate, see ``_QUOT_SCALE``).
        self.q_inv_float = _QUOT_SCALE / self.q_arr.astype(np.float64)
        self.psi_br = np.stack([c.psi_br for c in ctxs])            # (C, n)
        self.ipsi_br = np.stack([c.ipsi_br for c in ctxs])          # (C, n)
        self.n_inv = np.stack([c.n_inv for c in ctxs])              # (C,)
        # Twiddle of the last inverse stage with n^-1 folded in.
        self._last_twiddle = np.array(
            [int(w) * int(ni) % q for w, ni, q in
             zip(self.ipsi_br[:, 1], self.n_inv, self.primes)],
            dtype=np.uint64)
        self._lane_width = min(_NARROW, n)

    # ------------------------------------------------------------------ #

    def _batched(self, a: np.ndarray):
        """``a`` as a ``(C, B, n)`` uint64 array (a view where possible)
        and its original shape."""
        n = self.n
        a = np.asarray(a, dtype=np.uint64)
        shape = a.shape
        if shape[0] != len(self.primes) or shape[-1] != n:
            raise ValueError(
                f"expected shape ({len(self.primes)}, ..., {n}); got {shape}"
            )
        return a.reshape(shape[0], -1, n), shape

    def _moduli(self, ndim: int):
        """``q`` and ``2q`` shaped to broadcast over ``ndim``-d operands."""
        q = self.q_arr.reshape((-1,) + (1,) * (ndim - 1))
        return q, q + q

    def _twiddles(self, table: np.ndarray, t: int, lanes: bool,
                  buffer: np.ndarray, quot_buffer: np.ndarray):
        """The stage's twiddles and their float quotients, shaped for the
        ``(C, B, m, t)`` natural or ``(C, B, S/2t, t, n/S)`` lanes operands
        (block ``j = k * S/2t + i`` of the lanes layout is at ``(i, k)``).
        Lanes twiddles are copied into ``buffer``, quotients computed into
        ``quot_buffer``."""
        channels = len(self.primes)
        m = self.n // (2 * t)
        w = table[:, m:2 * m]
        if lanes:
            per_chunk = self._lane_width // (2 * t)
            lanes_w = buffer[:channels * m].reshape(
                channels, per_chunk, m // per_chunk)
            np.copyto(lanes_w, w.reshape(channels, m // per_chunk, per_chunk)
                      .transpose(0, 2, 1))
            w = lanes_w[:, None, :, None, :]
        else:
            w = w[:, None, :, None]
        q_inv = self.q_inv_float.reshape((-1,) + (1,) * (w.ndim - 1))
        return w, np.multiply(w, q_inv,
                              out=quot_buffer[:channels * m].reshape(w.shape))

    # ------------------------------------------------------------------ #

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT of ``a`` shaped ``(C, ..., n)``, values in
        ``[0, q)``; output bit-reversed, in ``[0, q)``."""
        a, shape = self._batched(a)
        a = np.array(a, order="C")
        words, floats, *twiddle_buffers = _scratch(a, len(self.primes))
        t = self.n // 2
        while t >= _NARROW:
            x, y = _halves(a, t)
            _ct_butterflies(
                x, y, *self._twiddles(self.psi_br, t, False, *twiddle_buffers),
                *self._moduli(x.ndim), words, floats)
            t //= 2
        lanes = _to_lanes(a, self._lane_width)
        while t >= 1:
            x, y = _halves(lanes, t)
            _ct_butterflies(
                x, y, *self._twiddles(self.psi_br, t, True, *twiddle_buffers),
                *self._moduli(x.ndim), words, floats)
            t //= 2
        _from_lanes(lanes, a)
        q, q2 = self._moduli(a.ndim)
        low = words.reshape(-1)[:a.size].reshape(a.shape)
        np.minimum(a, np.subtract(a, q2, out=low), out=a)
        np.minimum(a, np.subtract(a, q, out=low), out=a)
        return a.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT of ``a`` shaped ``(C, ..., n)``, values in
        ``[0, q)``, bit-reversed; output natural order, in ``[0, q)``."""
        a, shape = self._batched(a)
        work = _to_lanes(a, self._lane_width)
        a = np.empty(a.shape, dtype=np.uint64)
        words, floats, *twiddle_buffers = _scratch(a, len(self.primes))
        t = 1
        while True:
            if t == _NARROW:
                work = _from_lanes(work, a)
            x, y = _halves(work, t)
            if t == self.n // 2:
                break
            _gs_butterflies(
                x, y, *self._twiddles(self.ipsi_br, t, work.ndim == 4,
                                      *twiddle_buffers),
                *self._moduli(x.ndim), words, floats)
            t *= 2
        # Last stage (one block): multiply both outputs instead of reducing
        # the sum, with n^-1 folded into the multipliers.
        q, q2 = self._moduli(x.ndim)
        lo = self.n_inv.reshape(q.shape)
        hi = self._last_twiddle.reshape(q.shape)
        q_inv = self.q_inv_float.reshape(q.shape)
        total, diff, quot = words.reshape((3,) + x.shape)
        quot_f = floats.reshape(x.shape)
        np.add(x, y, out=total)
        np.subtract(x, y, out=diff)
        diff += q2
        x[...] = _lazy_mulmod(total, lo, lo * q_inv, q, total, quot, quot_f)
        y[...] = _lazy_mulmod(diff, hi, hi * q_inv, q, diff, quot, quot_f)
        if work.ndim == 4:
            _from_lanes(work, a)
        q, _ = self._moduli(a.ndim)
        low = words.reshape(-1)[:a.size].reshape(a.shape)
        np.minimum(a, np.subtract(a, q, out=low), out=a)
        return a.reshape(shape)


@lru_cache(maxsize=256)
def get_multi_context(n: int, primes) -> MultiNTTContext:
    """Cached :class:`MultiNTTContext` for a ``(n, primes-tuple)`` pair.

    Bounded (see :func:`get_context`): keys are whole prime chains, so
    the working set is one entry per (scheme, level) in flight."""
    return MultiNTTContext(n, tuple(primes))


def negacyclic_convolve_reference(a, b, q: int) -> np.ndarray:
    """Schoolbook negacyclic convolution — exact reference for testing.

    O(n^2); use only at small sizes.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return np.array(out, dtype=np.uint64)
