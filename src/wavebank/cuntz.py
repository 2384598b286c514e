"""Finite matrix realizations of the bank's isometry system.

A scale-N orthogonal bank defines N isometries ``(S_j xi)_k =
N^{-1/2} sum_l a^{(j)}_{k - N l} xi_l`` with orthogonal ranges that sum to the
identity.  On an L-periodic index set (N dividing L, L at least the tap span)
those relations hold exactly, and `verify_cuntz` reads them off the lag
products of the polyphase stack folded modulo L/N; the same fold of the
low-pass lag products certifies the subband ladder at each stage period.
The half-line invariance probe needs no operator at all: its leaks are tail
norms of the taps.

Reducibility is decided structurally on the polyphase loop: the system is
reducible exactly when the loop carries a monomial corner, i.e. standard
coordinates ``k`` that the loop maps to monomials, ``A(z) e_k = z^{n_k} w_k``
with constant ``w_k``.  Verdicts with corner size strictly between 0 and N
are labeled ``"evidence"``; only the empty and full-size corners are
``"decisive"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterBank, FilterCoeffs, _lag_products, _polyphase_stack
from .loops import PolyLoop

__all__ = [
    "CUNTZ_TOL",
    "LADDER_TOL",
    "PROBE_TOL",
    "PROBE_MAX_WINDOW",
    "SV_TOL",
    "CuntzSystem",
    "CuntzReport",
    "SubbandLadder",
    "CornerReport",
    "ProbeReport",
    "build_operators",
    "verify_cuntz",
    "subband_ladder",
    "detect_monomial_corner",
    "invariant_subspace_probe",
    "stretched_haar_adjusted",
]

CUNTZ_TOL = 1e-12
LADDER_TOL = 1e-10
PROBE_TOL = 1e-10
# The largest half-line probe window K, a plain bound: the probe's cost does
# not grow with K, and no window past 2 N g checks a further tap.
PROBE_MAX_WINDOW = 2048
# Column norms below this count as zero when `detect_monomial_corner` looks
# for monomial columns; two orders above the accumulation error at desk degrees.
SV_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CuntzSystem:
    """Periodized isometries of a bank: N matrices of shape ``(L, L/N)``."""

    bank: FilterBank
    L: int
    ops: tuple[np.ndarray, ...]

    @property
    def N(self) -> int:
        return self.bank.N


@dataclass(frozen=True)
class CuntzReport:
    max_residual_orthogonality: float
    max_residual_completeness: float


def build_operators(bank: FilterBank, L: int) -> CuntzSystem:
    """Periodize each channel into an ``L x (L/N)`` matrix ``S_j[k, l] = a_{(k-Nl) mod L} / sqrt(N)``.

    Requires N | L and L at least the tap span, so no tap wraps onto another.
    """
    N = bank.N
    if L % N != 0:
        raise ValueError(f"period {L} is not divisible by N = {N}")
    span = max(f.span for f in bank.filters)
    if L < span:
        raise ValueError(f"period {L} is shorter than the tap span {span}; taps would alias")
    return CuntzSystem(bank, L, _periodized(bank.filters, N, L))


def _periodized(filters, N: int, P: int) -> tuple[np.ndarray, ...]:
    """Each channel's ``P x (P/N)`` matrix ``S[k, l] = a_{(k-Nl) mod P} / sqrt(N)``."""
    idx = (np.arange(P)[:, None] - N * np.arange(P // N)[None, :]) % P
    return tuple(f.dense(P)[idx] / math.sqrt(N) for f in filters)


def _folded(C: np.ndarray, M: int) -> np.ndarray:
    """``F_r - delta_r0 I``, ``F_r = sum_{m = r mod M} C_m`` over the lags ``|m| < len(C)``, ``C_{-m} = C_m^*``."""
    lags = np.arange(len(C))
    F = np.zeros((M,) + C.shape[1:], dtype=np.complex128)
    np.add.at(F, lags % M, C)
    np.add.at(F, -lags[1:] % M, C[1:].conj().transpose(0, 2, 1))
    F[0] -= np.eye(C.shape[1])
    return F


def verify_cuntz(sys: CuntzSystem) -> CuntzReport:
    """Worst-case deviations from ``S_j^* S_k = delta_{jk} I`` and ``sum_j S_j S_j^* = I``.

    No operator is multiplied.  The entries of the ``S_j^* S_k`` are those of
    ``F_r = sum_{m = r mod L/N} C_m`` for the polyphase stack's lag products
    (``C_{-m} = C_m^*``), those of ``sum_j S_j S_j^*`` the same fold for the
    transposed stack; each residual is ``max |F_r - delta_r0 I|``.
    """
    M, stack = sys.L // sys.N, _polyphase_stack(sys.bank)
    residuals = (float(np.abs(_folded(_lag_products(A), M)).max()) for A in (stack, stack.transpose(0, 2, 1)))
    return CuntzReport(*residuals)


@dataclass(frozen=True, eq=False)
class SubbandLadder:
    """Orthogonal projections onto the detail spaces ``S_0^{n-1} L``, plus the tail.

    ``projections[n-1]`` projects onto the image of the wandering subspace
    ``L = ker S_0^*`` under ``n-1`` applications of the low-pass isometry;
    ``tail`` is the remaining coarse space ``S_0^d S_0^{*d}``; ``bound`` certifies them.
    """

    depth: int
    projections: tuple[np.ndarray, ...]
    tail: np.ndarray
    bound: float

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(np.trace(P).real)) for P in self.projections)

    @property
    def tail_rank(self) -> int:
        return int(round(np.trace(self.tail).real))


def subband_ladder(sys: CuntzSystem, depth: int) -> SubbandLadder:
    """Build the depth-d resolution ladder ``proj(S_0^{n-1} L) = B_{n-1} B_{n-1}^* - B_n B_n^*``.

    ``B_n`` chains the low-pass isometries of periods ``P_n = L, L/N, ...``,
    each built from the taps (never from ``sys.ops``); the level-n projection
    has rank ``L (N-1) / N^n`` and the tail ``L / N^d``.  Before any product
    the ladder is certified: ``S_0^* S_0`` at period ``P_n`` is circulant on
    the low-pass lag products folded modulo ``P_n / N``, so its defect
    ``eta_n = |S_0^* S_0 - I|_2`` is their largest |DFT|.  With
    ``gamma = prod (1 + eta_n) - 1 >= |B_n^* B_n - I|_2``, the projections are
    self-adjoint and sum to I, and each is idempotent and orthogonal to the
    others within ``4 gamma (1 + gamma)``, in exact arithmetic.  The rounding
    term ``2 (d + 1) (L + 2) eps`` allows ``2 (d + 1)`` complex products of
    inner dimension at most L, each off by at most ``(L + 2) eps`` per entry at
    unit norms (Higham, *Accuracy and Stability*, 2nd ed., Lemma 3.5).  A sum
    above ``LADDER_TOL`` is refused, and so is a trace that misses its rank.
    """
    bank, L, N = sys.bank, sys.L, sys.N
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if L % N**depth != 0:
        raise ValueError(f"N^depth = {N**depth} does not divide L = {L}")
    span = max(f.span for f in bank.filters)
    if L // N ** (depth - 1) < span:
        raise ValueError(f"depth {depth} too large for L = {L}: stage period drops below the tap span")
    periods, low = [L // N**n for n in range(depth)], _lag_products(_polyphase_stack(bank)[:, :1])
    etas = [float(np.abs(np.fft.fft(_folded(low, P // N)[:, 0, 0])).max()) for P in periods]
    gamma = math.prod(1.0 + eta for eta in etas) - 1.0
    bound = 4.0 * gamma * (1.0 + gamma) + 2 * (depth + 1) * (L + 2) * np.finfo(float).eps
    if not bound <= LADDER_TOL:
        raise ValueError(f"ladder certificate {bound:.3e} exceeds {LADDER_TOL}: the low-pass is not isometric")
    projections, B, prev = [], None, np.eye(L, dtype=np.complex128)
    for P in periods:
        stage = _periodized(bank.filters[:1], N, P)[0]
        B = stage if B is None else B @ stage
        cur = B @ B.conj().T
        projections.append(prev - cur)
        prev = cur
    ladder = SubbandLadder(depth, tuple(projections), prev, bound)
    expected = tuple(L * (N - 1) // N**n for n in range(1, depth + 1)), L // N**depth
    if (ladder.ranks, ladder.tail_rank) != expected:
        raise ValueError(f"ladder ranks {ladder.ranks}+{ladder.tail_rank} differ from expected {expected}")
    return ladder


@dataclass(frozen=True, eq=False)
class CornerReport:
    """Outcome of the monomial-corner search.

    ``witnesses`` holds the constant unit vectors ``u_i`` (columns) with
    ``A(z) u_i = z^{n_i} V[:, i]``; ``V`` is automatically isometric.
    ``confidence`` is ``"decisive"`` for corner sizes 0 and N, ``"evidence"``
    for intermediate sizes.  ``residual`` is the worst constraint violation of
    the returned corner when one is found, and otherwise the smallest singular
    value over all candidate exponents (the margin by which corners fail).
    """

    reducible: bool
    M: int
    exponents: tuple[int, ...]
    V: np.ndarray
    witnesses: np.ndarray
    confidence: str
    residual: float


def detect_monomial_corner(loop: PolyLoop) -> CornerReport:
    """Search a unitary loop for monomial columns ``A(z) e_k = z^{n_k} w_k``.

    Coordinate ``k`` contributes to the corner exactly when the standard
    basis vector ``e_k`` lies in the joint null space of every coefficient
    ``A_d`` with ``d != n_k``, i.e. when all but one of the column norms
    ``|A_d e_k|`` fall below ``SV_TOL`` (unitarity makes the surviving image
    a unit vector).  Aggregating over all coordinates yields the maximal
    corner; the system is reducible when the corner is nonempty, and for
    ``M = N`` the loop literally equals ``V diag(z^{n_0}, ..., z^{n_{N-1}})``
    with ``V`` the returned constants.  A degree-0 loop is the all-exponent-0
    case, ``V = A_0``.

    The corner is a standard-coordinate notion: multiplying the loop by a
    constant unitary on the left rotates ``V`` but keeps ``(reducible, M,
    exponents)``, whereas right multiplication mixes the coordinates and
    genuinely changes the operator system being represented.
    """
    N = loop.N
    # column_norms[d, k] = |A_d e_k|
    column_norms = np.linalg.norm(loop.coeffs, axis=1)
    exponents: list[int] = []
    u_cols: list[np.ndarray] = []
    w_cols: list[np.ndarray] = []
    worst_accept = 0.0
    best_reject = math.inf
    for k in range(N):
        norms = column_norms[:, k]
        n = int(np.argmax(norms))
        off = float(np.max(np.delete(norms, n))) if norms.size > 1 else 0.0
        if off <= SV_TOL:
            exponents.append(n)
            u = np.zeros(N, dtype=np.complex128)
            u[k] = 1.0
            u_cols.append(u)
            w_cols.append(loop.coeffs[n][:, k])
            worst_accept = max(worst_accept, off)
        else:
            best_reject = min(best_reject, off)
    M = len(exponents)
    if M:
        V = np.column_stack(w_cols)
        witnesses = np.column_stack(u_cols)
        residual = worst_accept
    else:
        V = np.zeros((N, 0), dtype=np.complex128)
        witnesses = np.zeros((N, 0), dtype=np.complex128)
        residual = best_reject if math.isfinite(best_reject) else 0.0
    confidence = "decisive" if M in (0, N) else "evidence"
    return CornerReport(M >= 1, M, tuple(exponents), V, witnesses, confidence, residual)


@dataclass(frozen=True)
class ProbeReport:
    candidate_found: bool
    residual: float
    window: int


def invariant_subspace_probe(bank: FilterBank, K: int) -> ProbeReport:
    """Test whether the half-line ``l^2({0, 1, 2, ...})`` is invariant.

    ``residual`` is the worst norm that any ``S_j`` or ``S_j^*`` moves from a
    half-line basis vector ``e_k``, ``0 <= k <= K - span``, to negative
    indices.  Every tap offset is nonnegative, so ``S_j`` moves none, and
    ``S_j^* e_k`` leaks the tail of the residue class of ``k`` mod N:
    ``sqrt(sum_{l >= 1} |a^{(j)}_{k + N l}|^2 / N)``.  The probe thus tests tap
    support, and finds a candidate only when every checked tail is zero (up
    to ``PROBE_TOL``), as for Haar; the window matters only through the range
    of ``k``.  A candidate certifies a reducing subspace of this particular
    family; a larger residual only rules the half-line out, it does not
    certify irreducibility.
    """
    N = bank.N
    span = max(f.span for f in bank.filters)
    if K < span:
        raise ValueError(f"window K = {K} must be at least the tap span {span}")
    if K > PROBE_MAX_WINDOW:
        raise ValueError(
            f"window K = {K} is too large: at most {PROBE_MAX_WINDOW}, "
            "the largest window the probe accepts"
        )
    # power[j, r, c] = |a^{(j)}_{N r + c}|^2 / N; tails[j, r, c] sums it over rows r' >= r
    power = np.abs(_polyphase_stack(bank).transpose(1, 0, 2)) ** 2
    tails = np.cumsum(power[:, ::-1], axis=1)[:, ::-1]
    # the leak of e_k, k = N r + c, is the strict tail tails[j, r + 1, c]
    leaks = tails[:, 1:].reshape(N, -1)[:, : K - span + 1]
    residual = math.sqrt(float(leaks.max(initial=0.0)))
    return ProbeReport(residual <= PROBE_TOL, residual, K)


def stretched_haar_adjusted(k: int) -> FilterBank:
    """The rotated stretched bank with symbols ``m_0 = 1`` and ``m_1 = z^{2k+1}``.

    Its operators act by ``f(z) -> f(z^2)`` and ``f(z) -> z^{2k+1} f(z^2)``.
    The taps satisfy translate orthonormality but not the DC normalization,
    so the bank is flagged ``lowpass_normalized=False``.  Its loop is the
    permutation-monomial matrix ``diag(1, z^k)``, a full monomial corner, and
    it reduces exactly like the ``stretched-haar:k`` preset it rotates.
    """
    if k < 1:
        raise ValueError("stretch count k must be at least 1")
    root2 = math.sqrt(2.0)
    low = FilterCoeffs([root2])
    high = FilterCoeffs([root2], offset=2 * k + 1)
    return FilterBank(
        2,
        k + 1,
        (low, high),
        lowpass_normalized=False,
        name=f"stretched-haar-adjusted:{k}",
    )
