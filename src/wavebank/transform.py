"""Multi-level periodic subband analysis and synthesis.

Signals are circular of length L with N^levels dividing L.  Analysis applies
the channel adjoints ``S_j^*``: one step sends a length-``L_c`` vector to
``N-1`` detail channels plus one coarse channel of length ``L_c / N``, and
the coarse channel is split again at the next level.  Both directions run on
the bank's polyphase coefficients ``A_d``, computing all N channels of a
level at once.  Orthogonality of the bank makes the whole map unitary, so
reconstruction and the energy balance are exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterBank
from .loops import _polyphase_stack

__all__ = ["CoeffTree", "analyze", "synthesize", "energy_report"]


@dataclass(frozen=True, eq=False)
class CoeffTree:
    """Subband coefficients: per-level detail channels plus the final coarse part.

    ``details[n-1][j-1]`` is the level-n, channel-j sequence of length
    ``L / N^n``; ``approx`` has length ``L / N^levels``.
    """

    N: int
    levels: int
    approx: np.ndarray
    details: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("scale N must be at least 2")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")
        approx = np.asarray(self.approx, dtype=np.complex128)
        if approx.ndim != 1 or approx.size == 0:
            raise ValueError("approx must be a nonempty one-dimensional sequence")
        if len(self.details) != self.levels:
            raise ValueError(f"expected {self.levels} detail levels, got {len(self.details)}")
        L = approx.size * self.N**self.levels
        details = []
        for n, channels in enumerate(self.details, start=1):
            channels = tuple(np.asarray(c, dtype=np.complex128) for c in channels)
            if len(channels) != self.N - 1:
                raise ValueError(f"level {n} must hold {self.N - 1} channels, got {len(channels)}")
            want = L // self.N**n
            for j, c in enumerate(channels, start=1):
                if c.ndim != 1 or c.size != want:
                    raise ValueError(f"level {n} channel {j} must have length {want}")
            details.append(channels)
        object.__setattr__(self, "approx", approx)
        object.__setattr__(self, "details", tuple(details))

    @property
    def signal_length(self) -> int:
        return self.approx.size * self.N**self.levels

    def coefficient_count(self) -> int:
        return self.approx.size + sum(c.size for level in self.details for c in level)


# Columns per block: one complex row of a block is 256 KiB, so a term's
# source, destination and product stay in L2 (2^13 and 2^15 measured slower).
_BLOCK = 2**14


def _accumulate(terms, width: int, tmp: np.ndarray) -> None:
    """``dst[t] += a * src[t + shift]`` for every term ``(a, dst, src, shift)``.

    ``t`` runs over ``[0, width)`` wherever both indices are in range, one
    block of ``_BLOCK`` columns at a time, and within a block term by term.
    So every element receives its rounded products in the order of
    ``terms``, exactly as a whole-row loop over the terms would add them.
    An elementwise multiply-add, not a matmul, keeps exact cancellations
    (a constant signal's Haar details) exactly zero; the scalar comes first
    because ``np.multiply`` can round ``x * a`` and ``a * x`` differently
    for complex operands.
    """
    for t0 in range(0, width, _BLOCK):
        t1 = min(t0 + _BLOCK, width)
        for a, dst, src, shift in terms:
            # this runs once per term and block, so the bounds avoid calls
            lo = -shift if t0 < -shift else t0
            hi = src.size - shift if src.size - shift < t1 else t1
            if lo < hi:
                out, prod = dst[lo:hi], tmp[: hi - lo]
                np.multiply(a, src[lo + shift : hi + shift], prod)
                np.add(out, prod, out)


def analyze(signal, bank: FilterBank, levels: int) -> CoeffTree:
    """Split a circular signal into ``levels`` rounds of subband coefficients.

    Level n details are ``S_j^* S_0^{*(n-1)} x``; the approx part is
    ``S_0^{*levels} x``.  Total coefficient count equals the signal length
    and total energy is preserved.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty one-dimensional sequence")
    N = bank.N
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    # the exponent of N in the length, found before any N**levels is formed
    most, rest = 0, x.size
    while rest % N == 0:
        most, rest = most + 1, rest // N
    if levels > most:
        raise ValueError(
            f"levels = {levels} is too many: at most {most}, since {N}^{most} is the "
            f"largest power of {N} dividing the signal length {x.size}"
        )
    if x.size < N * bank.g:
        raise ValueError(f"signal length {x.size} is shorter than the bank span {N * bank.g}")
    A = _polyphase_stack(bank).conj()
    terms = [(A[i], *i) for i in np.ndindex(A.shape)]
    tmp = np.empty(_BLOCK, dtype=np.complex128)
    details = []
    cur = x
    for _ in range(levels):
        # c_j[l] = sum_{d,r} conj(A_d[j, r]) x[N(l + d) + r] over phase-major
        # blocks of the signal extended cyclically by len(A) - 1 blocks, which
        # wraps several times when a stage is shorter than the tap span.
        M = cur.size // N
        X = np.take(cur.reshape(M, N).T, np.arange(M + len(A) - 1), axis=1, mode="wrap")
        out = [np.zeros(M, dtype=np.complex128) for _ in range(N)]
        _accumulate([(a, out[j], X[r], d) for a, d, j, r in terms], M, tmp)
        cur, *channels = out
        details.append(tuple(channels))
    return CoeffTree(N, levels, cur, tuple(details))


def synthesize(tree: CoeffTree, bank: FilterBank) -> np.ndarray:
    """Exact inverse of `analyze` for the same bank."""
    if bank.N != tree.N:
        raise ValueError(f"bank scale {bank.N} differs from tree scale {tree.N}")
    if tree.signal_length < bank.N * bank.g:
        raise ValueError("tree is too short for this bank's tap span")
    A = _polyphase_stack(bank)
    terms = [(A[i], *i) for i in np.ndindex(A.shape)]
    tmp = np.empty(_BLOCK, dtype=np.complex128)
    cur = tree.approx
    for channels in reversed(tree.details):
        # the adjoint of one analysis level, Y[r, l + d] += A_d[j, r] c_j[l],
        # folded back onto the period
        c, M = (cur, *channels), cur.size
        Y = np.zeros((bank.N, M + len(A) - 1), dtype=np.complex128)
        _accumulate([(a, Y[r], c[j], -d) for a, d, j, r in terms], Y.shape[1], tmp)
        for s in range(M, Y.shape[1], M):
            n = min(M, Y.shape[1] - s)
            Y[:, :n] += Y[:, s : s + n]
        cur = Y[:, :M].T.reshape(-1)
    return cur


def energy_report(tree: CoeffTree) -> dict:
    """Squared norms per subband, keyed ``"approx"`` and ``(level, channel)``.

    The values sum to the energy of the analyzed signal.
    """
    report: dict = {"approx": float(np.sum(np.abs(tree.approx) ** 2))}
    for n, channels in enumerate(tree.details, start=1):
        for j, c in enumerate(channels, start=1):
            report[(n, j)] = float(np.sum(np.abs(c) ** 2))
    return report
