"""Polynomial unitary loops: the polyphase form of a filter bank.

A loop is a matrix polynomial ``A(z) = sum_d A_d z^d`` that maps the unit
circle into the N-by-N unitary group.  Loops and banks carry the same data:
``A_d[j, k] = a^{(j)}_{N d + k} / sqrt(N)``, so converting either way is pure
index bookkeeping with no arithmetic beyond the ``sqrt(N)`` scaling, and
`unitarity_check` is `relations_check` on the loop's coefficients.

Degree-one elementary factors ``I - P + z P`` built from orthogonal
projections generate every polynomial loop; `synthesize_from_spins` expands a
constant unitary times such factors, and `factor_to_spins` peels rank-one
factors back off, as many as the winding number of ``det A(z)``, in up to
four attempts: from the right of the loop, from its left (the transpose's
right), and from both sides at the best split, right first and then left
first.  Only the split searches, which score their candidates at the roots of
unity, evaluate the loop on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .filters import (
    FilterBank, RelationsReport, _polyphase_stack, coeffs_from_dense, normalization_check, relations_check
)

__all__ = [
    "ROUNDTRIP_TOL",
    "PolyLoop",
    "SpinFactorization",
    "NotFactorableError",
    "filters_to_loop",
    "loop_to_filters",
    "unitarity_check",
    "synthesize_from_spins",
    "factor_to_spins",
]

# The largest coefficient error `factor_to_spins` accepts when it
# re-synthesizes its factors.
ROUNDTRIP_TOL = 1e-10
_PRUNE_TOL = 1e-12
# About the most bytes that one batch of split candidates holds in remainders
# and values at the roots of unity, which grow as the spin count squared.
_SPLIT_BYTES = 1 << 25


class NotFactorableError(ValueError):
    """The peeled factors do not re-synthesize the loop within ``ROUNDTRIP_TOL``.

    The input is not numerically paraunitary (a non-finite coefficient or a
    spin count above ``N * degree`` is refused before any peel), or all four
    peels lost accuracy: off the right, off the left, and from both sides at
    the best split, either side first.  ``step`` is the number of factors
    peeled, and ``conditioning = |P_1 P_2 ... P_k|_2`` of the refused factors
    is the factor by which the coefficient form shrinks the leading coefficient
    (``prod |<v_i, v_{i+1}>|`` for rank-one factors).  Both are optional for
    callers that raise it without a peel.
    """

    def __init__(
        self, message: str, residual: float, step: int | None = None, conditioning: float | None = None
    ):
        if step is not None:
            message += f" at step {step}"
        if conditioning is not None:
            message += f", conditioning {conditioning:.3e}"
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual
        self.step = step
        self.conditioning = conditioning


def _as_coeffs(coeffs, N: int | None = None) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] == 0:
        raise ValueError("coefficients must form a nonempty stack of square matrices")
    if N is not None and arr.shape[1] != N:
        raise ValueError(f"coefficient matrices are {arr.shape[1]}x{arr.shape[2]}, expected {N}x{N}")
    return arr


def _prune(coeffs: np.ndarray) -> np.ndarray:
    """Drop numerically zero trailing coefficient matrices (keep at least one)."""
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        raise ValueError("loop is identically zero")
    d = coeffs.shape[0]
    while d > 1 and np.abs(coeffs[d - 1]).max() <= _PRUNE_TOL * scale:
        d -= 1
    return np.ascontiguousarray(coeffs[:d])


@dataclass(frozen=True, eq=False)
class PolyLoop:
    """Coefficients ``(A_0, ..., A_D)`` of a matrix polynomial on the circle.

    The trailing coefficient must be nonzero (pruned representation).
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("scale N must be at least 2")
        coeffs = _as_coeffs(self.coeffs, self.N)
        if np.abs(coeffs[-1]).max() == 0.0:
            raise ValueError("trailing coefficient is zero; store loops pruned")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z: complex) -> np.ndarray:
        """Evaluate ``A(z)`` by Horner's rule."""
        out = np.array(self.coeffs[-1])
        for d in range(self.coeffs.shape[0] - 2, -1, -1):
            out = out * z + self.coeffs[d]
        return out


def _projection(vectors: np.ndarray) -> np.ndarray:
    # rows of `vectors` are an orthonormal basis of the projection's range
    return vectors.T @ vectors.conj()


@dataclass(frozen=True, eq=False)
class SpinFactorization:
    """A constant unitary ``V`` plus projection factors given by spin vectors.

    Each factor stores an orthonormal basis of its range as the rows of an
    ``(r, N)`` array with ``1 <= r <= N-1``; rank one (a single spin vector)
    is the generic case.  The loop it generates is
    ``V * prod_i (I - P_i + z P_i)`` in list order.
    """

    N: int
    V: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("scale N must be at least 2")
        V = np.asarray(self.V, dtype=np.complex128)
        if V.shape != (self.N, self.N):
            raise ValueError(f"V must be {self.N}x{self.N}")
        if np.abs(V.conj().T @ V - np.eye(self.N)).max() > 1e-12:
            raise ValueError("V is not unitary within 1e-12")
        factors = []
        for i, vecs in enumerate(self.factors):
            vecs = np.asarray(vecs, dtype=np.complex128)
            if vecs.ndim != 2 or vecs.shape[1] != self.N:
                raise ValueError(f"factor {i} vectors must be rows of length {self.N}")
            r = vecs.shape[0]
            if not 1 <= r <= self.N - 1:
                raise ValueError(f"factor {i} has rank {r}, expected 1..{self.N - 1}")
            if np.abs(vecs @ vecs.conj().T - np.eye(r)).max() > 1e-12:
                raise ValueError(f"factor {i} vectors are not orthonormal within 1e-12")
            factors.append(vecs)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "factors", tuple(factors))

    def projections(self) -> list[np.ndarray]:
        return [_projection(vecs) for vecs in self.factors]


def filters_to_loop(bank: FilterBank) -> PolyLoop:
    """Regroup bank taps into the polyphase loop ``A_d[j, k] = a^{(j)}_{Nd+k} / sqrt(N)``."""
    return PolyLoop(bank.N, _prune(_polyphase_stack(bank)))


def loop_to_filters(loop: PolyLoop) -> FilterBank:
    """Inverse tap regrouping; the resulting bank has genus ``degree + 1``.

    The caller is expected to pass a verified unitary loop.  The bank's
    ``lowpass_normalized`` flag is set from the actual DC sum of channel 0.
    """
    N = loop.N
    g = loop.degree + 1
    dense = loop.coeffs.transpose(1, 0, 2).reshape(N, N * g) * math.sqrt(N)
    filters = tuple(coeffs_from_dense(row) for row in dense)
    normalized = normalization_check(filters[0], N).passed
    return FilterBank(N, g, filters, lowpass_normalized=normalized)


def unitarity_check(loop: PolyLoop) -> RelationsReport:
    """Check ``A(z) A(z)^* = I``: `relations_check` on the loop's coefficients.

    This is the check the CLI applies to a loop, at the default ``ALG_TOL``.
    """
    return relations_check(loop.coeffs)


def _polymul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    N = A.shape[1]
    out = np.zeros((A.shape[0] + B.shape[0] - 1, N, N), dtype=np.complex128)
    for i in range(A.shape[0]):
        out[i : i + B.shape[0]] += A[i] @ B
    return out


def synthesize_from_spins(sf: SpinFactorization) -> PolyLoop:
    """Expand ``V * prod_i (I - P_i + z P_i)`` into coefficient form.

    The degree is at most the number of factors, with equality whenever the
    consecutive products are nondegenerate.
    """
    N = sf.N
    eye = np.eye(N, dtype=np.complex128)
    coeffs = sf.V[None, :, :].copy()
    for P in sf.projections():
        coeffs = _polymul(coeffs, np.stack([eye - P, P]))
    return PolyLoop(N, _prune(coeffs))


def _kernel_spin(A0: np.ndarray) -> np.ndarray:
    """The unit row spanning ``ker A0`` (the last right singular vector), for each matrix of a stack."""
    return np.linalg.svd(A0)[2][..., -1:, :].conj()


def _peel_steps(coeffs: np.ndarray, m: int) -> list[np.ndarray]:
    """Peel ``m`` rank-one factors off the right of ``coeffs`` in place, each from ``ker A_0``.

    Returns the spin vectors in peel order (rightmost factor first).
    """
    eye = np.eye(coeffs.shape[1], dtype=np.complex128)
    peeled: list[np.ndarray] = []
    for _ in range(m):
        vectors = _kernel_spin(coeffs[0])
        P = _projection(vectors)
        coeffs[:-1] = coeffs[:-1] @ (eye - P) + coeffs[1:] @ P
        coeffs[-1] = coeffs[-1] @ (eye - P)
        peeled.append(vectors)
    return peeled


def _peel_stacked(work: np.ndarray, v: np.ndarray) -> None:
    """One right peel of each stack ``work[b]`` by its spin ``v[b]``, in place, as rank-one updates.

    ``A(z) (I - P + P/z)`` has the coefficients ``A_d + ((A_{d+1} - A_d) v^T) conj(v)``.
    """
    w = work @ v.transpose(0, 2, 1)[:, None]  # A_d v^T
    work[:, :-1] += (w[:, 1:] - w[:, :-1]) * v.conj()[:, None]
    work[:, -1] -= w[:, -1] * v.conj()


def _factor(coeffs: np.ndarray, m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``V`` and the spins of ``m`` factors peeled off the right of ``coeffs``."""
    work = coeffs.copy()
    peeled = _peel_steps(work, m)
    u, _, vh = np.linalg.svd(work[0])
    return u @ vh, tuple(reversed(peeled))


def _from_transpose(W: np.ndarray, spins) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The factors of ``A`` from those of ``A^T``.

    ``A^T = W G(q_1) ... G(q_k)`` gives ``A = W^T G(conj(W q_k)) ... G(conj(W q_1))``.
    """
    return W.T, tuple((q @ W.T).conj() for q in reversed(spins))


def _round_trip(loop: PolyLoop, V: np.ndarray, spins) -> tuple[SpinFactorization, int, float]:
    """The factorization, the degree it re-synthesizes and its worst coefficient error."""
    N = loop.N
    sf = SpinFactorization(N, V, spins)
    back = synthesize_from_spins(sf).coeffs
    diff = np.zeros((max(back.shape[0], loop.coeffs.shape[0]), N, N), dtype=np.complex128)
    diff[: back.shape[0]] = back
    diff[: loop.coeffs.shape[0]] -= loop.coeffs
    return sf, back.shape[0] - 1, float(np.abs(diff).max())


def _split_batches(coeffs: np.ndarray, m: int):
    """The candidates of the two-sided peel: ``j`` factors off the right, ``m - j`` off the left.

    One right peel keeps its remainders.  Their left peels run together, as
    stacked steps with one stacked SVD each, while each candidate's factors
    multiply up at the ``m + 1`` roots of unity.  There the candidates are
    scored: the error has degree at most ``m``, so its square sum at those
    points is ``m + 1`` times the squared coefficient 2-norm.  Candidates come
    in batches of at most ``_SPLIT_BYTES``, each as ``(j0, W, peeled, right,
    scores)``: candidate ``j0 + i`` left-peeled its remainder's transpose to
    ``W[i]`` by the spins ``peeled[i]``, and ``right`` holds the right spins.
    """
    D1, N = coeffs.shape[:2]
    z = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))
    zm1 = (z - 1.0)[:, None, None]
    target = np.tensordot(z[:, None] ** np.arange(D1), coeffs, axes=1)
    eye = np.broadcast_to(np.eye(N, dtype=np.complex128), target.shape)
    rem, suffix = coeffs[None].copy(), eye  # the right peel's remainder, and its factors at z
    right: list[np.ndarray] = []  # the right spins in peel order
    size = max(1, _SPLIT_BYTES // (16 * N * N * (D1 + 2 * (m + 1))))
    for j0 in range(0, m + 1, size):
        count = min(size, m + 1 - j0)
        work = np.empty((count, D1, N, N), dtype=np.complex128)  # the remainders' transposes
        suffixes = np.empty((count,) + target.shape, dtype=np.complex128)
        for i in range(count):
            if j0 + i:
                v = _kernel_spin(rem[:, 0])
                _peel_stacked(rem, v)
                right.append(v[0])
                suffix = suffix + zm1 * (v[0].T * (v[0].conj() @ suffix))  # (I - P + z P) suffix
            work[i], suffixes[i] = rem[0].transpose(0, 2, 1), suffix
        values = np.repeat(eye[None], count, axis=0)  # the transposes' left factors at z
        peeled = np.empty((count, m - j0, 1, N), dtype=np.complex128)
        for s in range(m - j0):
            b = min(count, m - j0 - s)  # the remainders that still peel
            q = _kernel_spin(work[:b, 0])
            _peel_stacked(work[:b], q)
            values[:b] += zm1 * (q.transpose(0, 2, 1)[:, None] * (q.conj()[:, None] @ values[:b]))
            peeled[:b, s] = q
        u, _, vh = np.linalg.svd(work[:, 0])
        W = u @ vh
        fits = (W[:, None] @ values).transpose(0, 1, 3, 2) @ suffixes  # each candidate at z
        scores = (np.abs(fits - target) ** 2).sum(axis=(1, 2, 3))
        yield j0, W, peeled, right, scores


def _split_candidate(m: int, j: int, W: np.ndarray, peeled: np.ndarray, right) -> tuple[np.ndarray, tuple]:
    """``V`` and the spins of split candidate ``j``, from its entries in `_split_batches`."""
    V, left = _from_transpose(W, tuple(reversed(peeled[: m - j])))
    return V, left + tuple(reversed(right[:j]))


def _split(coeffs: np.ndarray, m: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The two-sided peel at its best split, the first candidate of the smallest score."""
    best, best_score = None, math.inf
    for j0, W, peeled, right, scores in _split_batches(coeffs, m):
        i = int(np.argmin(scores))
        if best is None or scores[i] < best_score:
            best, best_score = _split_candidate(m, j0 + i, W[i], peeled[i], right), scores[i]
    return best


def factor_to_spins(loop: PolyLoop) -> SpinFactorization:
    """Peel rank-one spin factors off a unitary loop.

    ``det A(z) = c z^m`` for a unitary loop, and ``m`` (the winding number,
    ``(1/2 pi) int tr(A^* z A') dtheta = sum_d d |A_d|_F^2``, read off the
    coefficients and rounded) is the number of rank-one factors.  Each of the
    ``m`` steps takes the spin vector ``v`` spanning ``ker A_0`` (the last
    right singular vector) and multiplies by ``I - P + P/z`` with ``P = v
    v^*``, keeping every coefficient.  The polar factor of the surviving
    constant ``A_0`` is ``V``, unitary even when the input is not, so the
    round trip is the one judge.  Pure delays and factors of higher rank come
    out as rank-one factors like every other loop, ordered so that
    `synthesize_from_spins` reproduces the input.

    When the round trip misses, the same peel runs once on the transpose,
    taking each spin from the left kernel of ``A_0``; when that misses too,
    the two-sided peel runs at its best split, ``j`` factors off the right and
    ``m - j`` off the left, the split chosen by the error at the ``m + 1``
    roots of unity, and last the mirrored split, left first and then right
    (the split of the transpose).  The first of the four attempts that passes
    is kept, else the one with the smallest error, so a loop an earlier
    attempt factors never reaches a later one.  The splits' factors come from
    rank-one coefficient updates, the one-sided peels' from matrix products.
    NotFactorableError is raised when no attempt re-synthesizes the input (a
    different degree, or a coefficient off by more than ``ROUNDTRIP_TOL``),
    naming the kept attempt's residual, step (the number of factors peeled)
    and conditioning.  This happens on inputs that are not numerically
    paraunitary and when every peel loses accuracy at high degree.  A loop
    holding a non-finite coefficient is refused first, and a count above
    ``N * degree``, the most rank-one factors that degree holds, before any
    peel, naming the relations residual.
    """
    N, D = loop.N, loop.degree
    if not np.isfinite(loop.coeffs).all():
        raise NotFactorableError("the loop holds a non-finite coefficient", math.inf)
    count = float(np.arange(D + 1) @ (np.abs(loop.coeffs) ** 2).sum(axis=(1, 2)))
    if not count < N * D + 0.5:  # it rounds above N * D
        raise NotFactorableError(
            f"the spin count sum_d d |A_d|_F^2 = {count:.6g} exceeds N * degree = {N * D}, "
            f"the most rank-one factors a degree-{D} loop holds",
            relations_check(loop.coeffs).residual,
        )
    m = round(count)
    T = loop.coeffs.transpose(0, 2, 1)
    attempts = (
        lambda: _factor(loop.coeffs, m),
        lambda: _from_transpose(*_factor(T, m)),
        lambda: _split(loop.coeffs, m),
        lambda: _from_transpose(*_split(T, m)),
    )
    sf, degree, error = None, -1, math.inf
    for attempt in attempts:
        tried = _round_trip(loop, *attempt())
        if tried[1] == D and tried[2] <= ROUNDTRIP_TOL:
            return tried[0]
        if sf is None or tried[2] < error:
            sf, degree, error = tried
    product = reduce(np.matmul, sf.projections(), np.eye(N, dtype=np.complex128))
    raise NotFactorableError(
        f"the factors re-synthesize a degree-{degree} loop that misses the "
        f"degree-{D} input by more than {ROUNDTRIP_TOL:.0e}",
        error,
        len(sf.factors),
        float(np.linalg.norm(product, 2)),
    )
