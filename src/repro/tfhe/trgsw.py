"""TRGSW samples, gadget decomposition, external product, CMux."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.params import TFHEParams
from repro.tfhe.polymul import TorusMultiplier, get_torus_multiplier
from repro.tfhe.trlwe import TrlweKey, TrlweSample, trlwe_encrypt


def gadget_decompose(
    poly: np.ndarray, bg_bit: int, length: int
) -> np.ndarray:
    """Signed gadget decomposition of Torus32 polynomials.

    Returns ``(..., length, N)`` int64 digits ``d_i`` in ``[-Bg/2, Bg/2)``
    for ``(..., N)`` input, with ``sum_i d_i * 2**(32 - (i+1)*bg_bit) ≈
    poly`` (error below ``2**(32 - length*bg_bit - 1)``), following
    TFHE-lib's offset trick.
    """
    poly = np.asarray(poly, dtype=np.uint32)
    bg = 1 << bg_bit
    half = bg >> 1
    offset = 0
    for i in range(1, length + 1):
        offset += half << (32 - i * bg_bit)
    t = (poly.astype(np.uint64) + np.uint64(offset % (1 << 32))) & np.uint64(
        0xFFFFFFFF
    )
    shifts = np.array([32 - i * bg_bit for i in range(1, length + 1)],
                      dtype=np.uint64)
    digits = (t[..., None, :] >> shifts[:, None]) & np.uint64(bg - 1)
    return digits.astype(np.int64) - half


def external_multiplier(params: TFHEParams) -> TorusMultiplier:
    """The exact multiplier for an external product: ``2l`` rows of gadget
    digits in ``[-Bg/2, Bg/2)``."""
    return get_torus_multiplier(
        params.ring_degree, 2 * params.decomp_length, params.bg // 2)


@dataclass
class TrgswKey:
    """TRGSW uses the TRLWE key; this wrapper exists for API clarity."""

    trlwe_key: TrlweKey

    @property
    def params(self) -> TFHEParams:
        return self.trlwe_key.params


@dataclass
class TrgswSample:
    """A TRGSW encryption of a small integer polynomial ``m``.

    ``rows`` holds ``2*l`` TRLWE samples: rows ``0..l-1`` carry ``m * g_i``
    on the mask, rows ``l..2l-1`` carry it on the body.  ``spectra_a`` /
    ``spectra_b`` cache the spectra of all row polynomials, in the form of
    the :func:`external_multiplier` path only, for the external-product
    inner loop.
    """

    params: TFHEParams
    rows: List[TrlweSample]
    spectra_a: np.ndarray = None  # (channels, 2l, N)
    spectra_b: np.ndarray = None  # (channels, 2l, N)

    def precompute_spectra(self) -> None:
        from repro.tfhe.torus import to_centered_int64

        mult = external_multiplier(self.params)
        a_stack = np.stack([to_centered_int64(r.a) for r in self.rows])
        b_stack = np.stack([to_centered_int64(r.b) for r in self.rows])
        self.spectra_a = mult.spectrum(a_stack)
        self.spectra_b = mult.spectrum(b_stack)

    # ------------------------------------------------------------------ #

    def external_product(self, sample: TrlweSample) -> TrlweSample:
        """``self ⊡ sample``: TRLWE encrypting ``m * message(sample)``."""
        params = self.params
        if self.spectra_a is None:
            self.precompute_spectra()
        u = gadget_decompose(
            np.stack([sample.a, sample.b]), params.bg_bit,
            params.decomp_length,
        ).reshape(-1, params.ring_degree)  # (2l, N): mask digits, body digits
        out_a, out_b = external_multiplier(params).mul_sum_multi(
            u, [self.spectra_a, self.spectra_b])
        return TrlweSample(out_a, out_b)

    def cmux(self, d0: TrlweSample, d1: TrlweSample) -> TrlweSample:
        """Homomorphic selector: returns ``d1`` if ``m = 1`` else ``d0``."""
        diff = d1 - d0
        return d0 + self.external_product(diff)


def trgsw_encrypt(
    message: int,
    key: TrgswKey,
    rng: np.random.Generator,
    noise_std: float = None,
    expander: Optional[SeedExpander] = None,
    stream_prefix: Optional[str] = None,
) -> TrgswSample:
    """Encrypt a small integer constant (typically a key bit 0/1).

    With an ``expander``, each row's uniform mask comes from the stream
    ``{stream_prefix}/r{row}``.  The gadget is added to the mask of the
    first ``l`` rows, so those masks are only uniform pre-gadget: this is
    a generation-time determinism hook (bootstrapping-key reproducibility),
    not a serialization-compression one.
    """
    params = key.params
    n = params.ring_degree
    length = params.decomp_length
    zero = np.zeros(n, dtype=np.uint32)
    rows = []
    for row in range(2 * length):
        stream = (f"{stream_prefix}/r{row}"
                  if expander is not None else None)
        rows.append(trlwe_encrypt(zero, key.trlwe_key, rng, noise_std,
                                  expander=expander, stream=stream))
    m = int(message)
    for i in range(length):
        g = (m << (32 - (i + 1) * params.bg_bit)) % (1 << 32)
        rows[i].a[0] = np.uint32((int(rows[i].a[0]) + g) % (1 << 32))
        rows[length + i].b[0] = np.uint32(
            (int(rows[length + i].b[0]) + g) % (1 << 32))
    sample = TrgswSample(params, rows)
    sample.precompute_spectra()
    return sample
