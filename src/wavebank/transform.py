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
ones.  Every output element receives the same rounded products in the same
order as a whole-row loop over the terms.

A level's blocks are independent, and numpy releases the interpreter lock
inside every multiply-add.  So when the process may use more than one CPU,
a level of two or more blocks is split at a block boundary: the caller runs
the first half and one helper thread, started on first use and shared by
every call, runs the second; synthesis folds the period once both are done.
Each half owns its buffers, so the results are the same bits on any CPU
count, and beyond the output and the level's input the working memory is
two sets of O(N * _BLOCK) buffers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .filters import FilterBank, _polyphase_stack

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_helper_jobs = None  # the helper's job queue, made with the helper on first use
_helper_lock = threading.Lock()


def _helper():
    global _helper_jobs
    with _helper_lock:
        if _helper_jobs is None:
            import queue  # here, so that calls that never split import nothing

            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="wavebank-transform", daemon=True).start()
            _helper_jobs = jobs
        return _helper_jobs


def _forget_helper() -> None:
    global _helper_jobs, _helper_lock
    _helper_jobs, _helper_lock = None, threading.Lock()  # a forked child has no helper


os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs) -> None:
    """The helper: run each ``(work, args, reply)`` and reply None or the exception."""
    while True:
        work, args, reply = jobs.get()
        err = None
        try:
            work(*args)
        except BaseException as exc:  # raised again in the caller
            err = exc
        work = args = None  # the caller may drop the level's arrays once replied to
        reply.put(err)
        err = reply = None


class _Halves:
    """One call's runner of level blocks: its two buffer sets and its reply queue.

    The second half goes to the shared helper, not to a thread per level: on two CPUs a
    thread start and join takes 75-100 us against 15 us for the queue handoff, which made
    analyze + synthesize slower on every short bank (Haar at 2^20 samples: 21.9 -> 25.5 ms).
    """

    def __init__(self, N: int, D: int):
        self._shape = (N, _BLOCK + D - 1)
        self._sets = [self._scratch()]
        self._split = _usable_cpus() > 1
        self._reply = None

    def _scratch(self):
        return np.empty(self._shape, dtype=np.complex128), np.empty(self._shape[1], dtype=np.complex128)

    def run(self, work, terms, src, dst, M: int) -> np.ndarray:
        """``work(terms, src, dst, start, stop, buf, tmp)`` over the blocks of ``[0, M)``.

        The blocks past the middle run on the helper, with their own buffers,
        and this returns once both halves are done, giving the block buffer
        that summed the last block.
        """
        # Two blocks split too.  Splitting only from three blocks saved 2 ms on
        # the first call in a process, which starts the helper, but made the
        # next calls 0.2-0.7 ms slower at 2^16 samples (db4, two CPUs).
        if not self._split or M <= _BLOCK:
            work(terms, src, dst, 0, M, *self._sets[0])
            return self._sets[0][0]
        if self._reply is None:
            import queue

            self._sets.append(self._scratch())
            self._reply = queue.SimpleQueue()
        mid = _BLOCK * ((M + _BLOCK) // (2 * _BLOCK))  # 1 <= blocks before it < all blocks
        _helper().put((work, (terms, src, dst, mid, M, *self._sets[1]), self._reply))
        try:
            work(terms, src, dst, 0, mid, *self._sets[0])
        finally:
            err = self._reply.get()  # the helper writes into dst until it replies
        if err is not None:
            raise err
        return self._sets[1][0]


def _analysis_blocks(terms, phases, out, start: int, stop: int, buf, tmp) -> None:
    # c_j[l] = sum_{d,r} conj(A_d[j, r]) x[N(l + d) + r].  The outputs
    # [t0, t0 + w) read the phase rows x[N l + r] at l = t0 .. t0 + w + D - 2
    # taken cyclically, gathered into buf one period copy at a time, so a
    # stage shorter than the tap span wraps several times.
    M, past, rows = phases.shape[1], buf.shape[1] - _BLOCK, list(buf)
    for t0 in range(start, stop, _BLOCK):
        w = min(_BLOCK, stop - t0)
        for p in range(-t0, w + past, M):  # buf column of phase column 0
            lo, hi = max(p, 0), min(p + M, w + past)
            buf[:, lo:hi] = phases[:, lo - p : hi - p]
        _accumulate(terms, [o[t0 : t0 + w] for o in out], rows, 0, w, tmp)


def _synthesis_blocks(terms, c, out, start: int, stop: int, buf, tmp) -> None:
    # the adjoint of one analysis level, y[N(l + d) + r] += A_d[j, r] c_j[l],
    # summed on the phase rows l + d block by block.  The last block also
    # sums the D - 1 columns past the period, left in buf for the fold.
    M, past = c[0].size, buf.shape[1] - _BLOCK
    for t0 in range(start, stop, _BLOCK):
        w = min(_BLOCK, stop - t0)
        block = buf[:, : w + past if t0 + w == M else w]
        block.fill(0)
        _accumulate(terms, list(block), c, t0, block.shape[1], tmp)
        out[t0 : t0 + w] = block[:, :w].T


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
    terms = [(A[d, j, r], j, r, d) for d, j, r in np.ndindex(A.shape)]
    halves = _Halves(N, len(A))
    details = []
    cur = x
    for _ in range(levels):
        M = cur.size // N
        out = [np.zeros(M, dtype=np.complex128) for _ in range(N)]
        halves.run(_analysis_blocks, terms, cur.reshape(M, N).T, out, M)
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
    halves = _Halves(N, D)
    cur = tree.approx
    for channels in reversed(tree.details):
        M = cur.size
        out = np.empty((M, N), dtype=np.complex128)
        last = halves.run(_synthesis_blocks, terms, (cur, *channels), out, M)
        # once the whole period is written, the D - 1 columns past it fold
        # back onto l mod M in the order l = M, 2M, ...
        w = M - (M - 1) // _BLOCK * _BLOCK  # the last block's width
        for s in range(M, M + D - 1, M):
            n = min(M, M + D - 1 - s)
            out[:n] += last[:, w + s - M : w + s - M + n].T
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
