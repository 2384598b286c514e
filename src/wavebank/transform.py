"""Multi-level periodic subband analysis and synthesis.

Signals are circular of length L with N^levels dividing L.  Analysis applies
the channel adjoints ``S_j^*``: one step sends a length-``L_c`` vector to
``N-1`` detail channels plus one coarse channel of length ``L_c / N``, and
the coarse channel is split again at the next level.  Both directions run on
the bank's polyphase coefficients ``A_d``, computing all N channels of a
level at once.  Orthogonality of the bank makes the whole map unitary, so
reconstruction and the energy balance are exact to rounding.

A level reads its input once and writes its output once, one block of
``_BLOCK`` columns at a time: analysis gathers the N phase rows of a block,
extended cyclically, into a small buffer; synthesis sums a block in a small
buffer and writes it interleaved into the output, and its last block also
sums the few columns past the period, which are then added onto the first
ones.  Beyond the output and the level's input, the working memory is
O(N * _BLOCK).  Every output element receives the same rounded products in
the same order as a whole-row loop over the terms.
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


def _accumulate(terms, dst, src, base: int, width: int, tmp: np.ndarray) -> None:
    """``dst[i][t] += a * src[k][t + base + s]`` for every term ``(a, i, k, s)``.

    ``t`` runs over ``[0, width)`` wherever the source index is in range,
    term by term, so every element receives its rounded products in the
    order of ``terms``, exactly as a whole-row loop over the terms would add
    them.  An elementwise multiply-add, not a matmul, keeps exact
    cancellations (a constant signal's Haar details) exactly zero; the
    scalar comes first because ``np.multiply`` can round ``x * a`` and
    ``a * x`` differently for complex operands.
    """
    for a, i, k, s in terms:
        # this runs once per term and block, so the bounds avoid calls
        row, shift = src[k], base + s
        lo = -shift if shift < 0 else 0
        hi = row.size - shift if row.size - shift < width else width
        if lo < hi:
            out, prod = dst[i][lo:hi], tmp[: hi - lo]
            np.multiply(a, row[lo + shift : hi + shift], prod)
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
    D = len(A)
    terms = [(A[d, j, r], j, r, d) for d, j, r in np.ndindex(A.shape)]
    buf = np.empty((N, _BLOCK + D - 1), dtype=np.complex128)
    rows = list(buf)
    tmp = np.empty(_BLOCK, dtype=np.complex128)
    details = []
    cur = x
    for _ in range(levels):
        # c_j[l] = sum_{d,r} conj(A_d[j, r]) x[N(l + d) + r].  The outputs
        # [t0, t0 + w) read the phase rows x[N l + r] at l = t0 .. t0 + w + D - 2
        # taken cyclically, gathered into buf one period copy at a time, so a
        # stage shorter than the tap span wraps several times.
        M = cur.size // N
        phases = cur.reshape(M, N).T
        out = [np.zeros(M, dtype=np.complex128) for _ in range(N)]
        for t0 in range(0, M, _BLOCK):
            w = min(_BLOCK, M - t0)
            for p in range(-t0, w + D - 1, M):  # buf column of phase column 0
                lo, hi = max(p, 0), min(p + M, w + D - 1)
                buf[:, lo:hi] = phases[:, lo - p : hi - p]
            _accumulate(terms, [o[t0 : t0 + w] for o in out], rows, 0, w, tmp)
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
    N, D = bank.N, len(A)
    terms = [(A[d, j, r], r, j, -d) for d, j, r in np.ndindex(A.shape)]
    buf = np.empty((N, _BLOCK + D - 1), dtype=np.complex128)
    tmp = np.empty(_BLOCK + D - 1, dtype=np.complex128)
    cur = tree.approx
    for channels in reversed(tree.details):
        # the adjoint of one analysis level, y[N(l + d) + r] += A_d[j, r] c_j[l],
        # summed on the phase rows l + d block by block.  The last block also
        # sums the D - 1 columns past the period, which then fold back onto
        # l mod M in the order l = M, 2M, ... once the whole period is written.
        c, M = (cur, *channels), cur.size
        out = np.empty((M, N), dtype=np.complex128)
        for t0 in range(0, M, _BLOCK):
            w = min(_BLOCK, M - t0)
            block = buf[:, : w + D - 1 if t0 + w == M else w]
            block.fill(0)
            _accumulate(terms, list(block), c, t0, block.shape[1], tmp)
            out[t0 : t0 + w] = block[:, :w].T
        for s in range(M, M + D - 1, M):  # block and w are the last block's
            n = min(M, M + D - 1 - s)
            out[:n] += block[:, w + s - M : w + s - M + n].T
        cur = out.reshape(-1)
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
