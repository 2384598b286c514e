"""Finite N-band filter banks: tap containers, verification checks, presets.

Conventions used throughout the package:

* a filter is a finite complex tap sequence ``a_offset, ..., a_{offset+L-1}``,
  with out-of-range indices contributing zero;
* the symbol of a filter is ``m(z) = N^{-1/2} sum_k a_k z^k`` on ``|z| = 1``;
* a scale-``N`` bank of genus ``g`` holds ``N`` filters whose taps lie in
  ``[0, N*g)``, channel 0 being the low-pass;
* a bank is orthogonal when its channels satisfy the orthogonality relations
  ``sum_k a^{(i)}_{k+N*m} conj(a^{(j)}_k) = N delta_ij delta_m0``, and
  DC-normalized when additionally ``sum_k a^{(0)}_k = N`` (i.e. ``m(1) =
  sqrt(N)``).

`relations_check` decides them all at once on the lag products of the
polyphase stack ``A_d[j, r] = a^{(j)}_{N*d+r} / sqrt(N)``; `verify_bank` adds
the DC sum, and ``loops.unitarity_check`` is the same check on a loop's
coefficients.  `orthogonality_check` (one channel's translates, which is also
its power identity) and ``cuntz.verify_cuntz`` (the Cuntz relations: the
products folded modulo the period) are views of the same products.

All operations are pure and deterministic; the container types are treated
as immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALG_TOL",
    "PRESET_MAX_STRETCH",
    "FilterCoeffs",
    "FilterBank",
    "NormalizationReport",
    "OrthogonalityReport",
    "RelationsReport",
    "BankReport",
    "coeffs_from_dense",
    "normalization_check",
    "orthogonality_check",
    "symbol_eval",
    "relations_check",
    "haar_complement",
    "preset_bank",
    "verify_bank",
]

# The default tolerance of the checks.
ALG_TOL = 1e-10
# The largest k of the "stretched-haar:k" preset, checked before its taps are
# allocated: verifying it forms k + 1 lag products over k + 1 blocks, a cost
# that grows as k^2 and takes seconds at this k.
PRESET_MAX_STRETCH = 2**14


def _as_taps(values) -> np.ndarray:
    taps = np.asarray(values, dtype=np.complex128)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a nonempty one-dimensional sequence")
    return taps


@dataclass(frozen=True, eq=False)
class FilterCoeffs:
    """A finite complex tap sequence starting at grid index ``offset``.

    Leading/trailing zero taps are rejected unless ``unpruned=True``, so a
    stored sequence always spans exactly its support.
    """

    taps: np.ndarray
    offset: int = 0
    unpruned: bool = False

    def __post_init__(self):
        taps = _as_taps(self.taps)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "offset", int(self.offset))
        if not self.unpruned and (taps[0] == 0 or taps[-1] == 0):
            raise ValueError(
                "leading/trailing taps are zero; pass unpruned=True to keep them"
            )

    def __len__(self) -> int:
        return self.taps.size

    @property
    def span(self) -> int:
        """One past the index of the last tap (counted from 0)."""
        return self.offset + self.taps.size

    def dense(self, length: int | None = None) -> np.ndarray:
        """Taps re-indexed from 0 and zero-padded to ``length`` entries."""
        if self.offset < 0:
            raise ValueError("dense layout requires a nonnegative offset")
        n = self.span if length is None else int(length)
        if n < self.span:
            raise ValueError(f"length {n} would clip taps ending at index {self.span - 1}")
        out = np.zeros(n, dtype=np.complex128)
        out[self.offset : self.span] = self.taps
        return out


def coeffs_from_dense(values) -> FilterCoeffs:
    """Build a pruned FilterCoeffs from a dense 0-indexed array.

    Exact zero margins become the offset / a shorter tap vector; interior
    zeros are kept.
    """
    dense = _as_taps(values)
    nonzero = np.nonzero(dense)[0]
    if nonzero.size == 0:
        raise ValueError("all taps are zero")
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    return FilterCoeffs(dense[lo : hi + 1], offset=lo)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """``N`` filters on a common scale; channel 0 is the low-pass.

    ``lowpass_normalized`` records whether the DC condition ``sum a_k = N``
    is part of the bank's contract; orthogonal-but-unnormalized banks (pure
    delay systems, for instance) carry ``False``.
    """

    N: int
    g: int
    filters: tuple[FilterCoeffs, ...]
    lowpass_normalized: bool = True
    name: str = ""

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("scale N must be at least 2")
        if self.g < 1:
            raise ValueError("genus g must be at least 1")
        filters = tuple(self.filters)
        if len(filters) != self.N:
            raise ValueError(f"expected {self.N} filters, got {len(filters)}")
        for j, f in enumerate(filters):
            if f.offset < 0 or f.span > self.N * self.g:
                raise ValueError(
                    f"filter {j} taps occupy [{f.offset}, {f.span}) outside [0, {self.N * self.g})"
                )
        object.__setattr__(self, "filters", filters)

    @property
    def lowpass(self) -> FilterCoeffs:
        return self.filters[0]

    def dense_taps(self) -> np.ndarray:
        """All channels re-indexed from 0, as an ``(N, N*g)`` array."""
        return np.stack([f.dense(self.N * self.g) for f in self.filters])


@dataclass(frozen=True)
class NormalizationReport:
    passed: bool
    residual: float
    tol: float


@dataclass(frozen=True)
class OrthogonalityReport:
    passed: bool
    worst_lag: int
    residual: float
    tol: float


@dataclass(frozen=True)
class RelationsReport:
    """The worst residual of the orthogonality relations and its ``(m, i, j)``."""

    passed: bool
    residual: float
    worst: tuple[int, int, int]
    tol: float


@dataclass(frozen=True)
class BankReport:
    """The orthogonality relations plus, when the bank claims it, the DC sum."""

    passed: bool
    relations: RelationsReport
    normalization: NormalizationReport | None


def normalization_check(f: FilterCoeffs, N: int, tol: float = ALG_TOL) -> NormalizationReport:
    """Check the DC condition ``sum_k a_k = N``."""
    residual = float(abs(f.taps.sum() - N))
    return NormalizationReport(residual <= tol, residual, tol)


def orthogonality_check(f: FilterCoeffs, N: int) -> OrthogonalityReport:
    """Check translate orthonormality ``sum_k a_{k+N*l} conj(a_k) = N delta_l`` within ``ALG_TOL``.

    This is `relations_check` on the taps' one-row stack (padded to a multiple
    of N, in rows of N), ``worst_lag`` its lag; an index shift, the offset, changes nothing.
    It is also the power identity ``sum_{k<N} |m(z e^{2 pi i k / N})|^2 = N`` on
    the whole circle, whose left side is ``sum_l z^{N l} sum_k a_{k+N*l} conj(a_k)``.
    """
    rep = relations_check(np.pad(f.taps, (0, -f.taps.size % N)).reshape(-1, 1, N) / math.sqrt(N))
    return OrthogonalityReport(rep.passed, rep.worst[0], rep.residual, rep.tol)


def symbol_eval(f: FilterCoeffs, N: int, z: complex) -> complex:
    """Evaluate ``m(z) = N^{-1/2} sum_k a_k z^{k+offset}`` for ``|z| = 1``."""
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError(f"z must lie on the unit circle, got |z| = {abs(z)}")
    powers = z ** np.arange(f.offset, f.span)
    return complex(np.dot(f.taps, powers) / math.sqrt(N))


def _polyphase_stack(bank: FilterBank) -> np.ndarray:
    """The unpruned stack ``A_d[j, r] = a^{(j)}_{Nd+r} / sqrt(N)``, ``d < ceil(span / N)``."""
    N, D = bank.N, -(-max(f.span for f in bank.filters) // bank.N)
    dense = np.stack([f.dense(N * D) for f in bank.filters])
    return dense.reshape(N, D, N).transpose(1, 0, 2) / math.sqrt(N)


def _lag_products(A: np.ndarray) -> np.ndarray:
    """The lag products ``C_m = sum_d A_{d+m} A_d^*``, ``m < D``; ``C_{-m} = C_m^*``."""
    D = A.shape[0]
    return np.stack([np.einsum("dik,djk->ij", A[m:], A[: D - m].conj()) for m in range(D)])


def relations_check(coeffs, tol: float = ALG_TOL) -> RelationsReport:
    """Check ``C_m = sum_d A_{d+m} A_d^* = delta_m0 I`` for ``m = 0..D-1``.

    ``coeffs`` is a polyphase stack ``(A_0, ..., A_{D-1})`` of ``R x N``
    matrices, a bank's or a loop's (``R = N``) or one channel's (``R = 1``).
    The ``C_m`` are its `_lag_products`, so ``A(z) A(z)^* = I`` holds exactly
    when every ``C_m`` matches; for a bank, ``N C_m[i, j] = sum_k
    a^{(i)}_{k+N*m} conj(a^{(j)}_k)``.

    The residual is on that tap scale: the largest ``N |C_m - delta_m0 I|``
    entry (``N`` the columns, ``I`` of the rows), so on the diagonal it is the
    deviation `orthogonality_check` reports for channel ``i`` at lag ``m``.
    ``worst`` is its ``(m, i, j)``, the first one on ties or at a NaN.
    """
    A = np.asarray(coeffs, dtype=np.complex128)
    C = _lag_products(A)
    C[0] -= np.eye(A.shape[1])
    devs = A.shape[2] * np.abs(C)
    flat = int(np.argmax(devs))  # the first maximum, or the first NaN
    residual = float(devs.flat[flat])
    m, i, j = (int(x) for x in np.unravel_index(flat, devs.shape))
    return RelationsReport(residual <= tol, residual, (m, i, j), tol)


def haar_complement(f: FilterCoeffs, g: int) -> FilterCoeffs:
    """High-pass completion ``b_k = (-1)^k conj(a_{2g-1-k})`` for scale 2.

    Applied twice this returns ``(-1)^{2g-1}`` times the original taps.
    """
    if g < 1:
        raise ValueError("genus g must be at least 1")
    L = 2 * g
    if f.offset < 0 or f.span > L:
        raise ValueError(f"taps occupy [{f.offset}, {f.span}) outside [0, {L})")
    a = f.dense(L)
    k = np.arange(L)
    b = (-1.0) ** k * np.conj(a[L - 1 - k])
    return coeffs_from_dense(b)


def _daubechies4_taps() -> np.ndarray:
    # Closed form for four real taps with sum 2, translate orthonormality and
    # a double symbol zero at z = -1 (the first zero is automatic from the sum
    # plus the power identity; the second isolates the solution up to index
    # reflection).  tests/test_filters.py re-derives these by a Newton solve.
    r = math.sqrt(3.0)
    return np.array([1.0 + r, 3.0 + r, 3.0 - r, 1.0 - r]) / 4.0


def preset_bank(name: str) -> FilterBank:
    """Return a named, fully verified dyadic bank.

    Known names: ``"haar"``, ``"db4"``, and ``"stretched-haar:k"`` for
    ``1 <= k <= PRESET_MAX_STRETCH`` (low-pass ``(1 + z^{2k+1}) / sqrt(2)``).
    """
    if name == "haar":
        low = FilterCoeffs([1.0, 1.0])
        g = 1
    elif name == "db4":
        low = FilterCoeffs(_daubechies4_taps())
        g = 2
    elif name.startswith("stretched-haar:"):
        text = name.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            k = None
        if k is None or text != str(k):  # one spelling, one name, per count
            raise ValueError(f"malformed stretch count in preset {name!r}")
        if k < 1:
            raise ValueError("stretched-haar requires k >= 1")
        if k > PRESET_MAX_STRETCH:
            raise ValueError(f"stretch count k = {k} is too large: at most {PRESET_MAX_STRETCH}")
        taps = np.zeros(2 * k + 2)
        taps[0] = 1.0
        taps[-1] = 1.0
        low = FilterCoeffs(taps)
        g = k + 1
    else:
        raise ValueError(f"unknown preset {name!r}")
    bank = FilterBank(2, g, (low, haar_complement(low, g)), name=name)
    report = verify_bank(bank)
    if not report.passed:
        raise AssertionError(f"preset {name!r} failed its own verification: {report}")
    return bank


def verify_bank(bank: FilterBank, tol: float = ALG_TOL) -> BankReport:
    """Check the orthogonality relations and, if the bank claims it, the DC sum."""
    relations = relations_check(_polyphase_stack(bank), tol)
    norm = normalization_check(bank.lowpass, bank.N, tol) if bank.lowpass_normalized else None
    passed = relations.passed and (norm is None or norm.passed)
    return BankReport(passed, relations, norm)
