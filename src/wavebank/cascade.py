"""Scaling functions and wavelets on N-adic grids via cascade iteration.

The refinement fixed point ``phi(x) = sum_k a_k phi(N x - k)`` is computed by
iterating the right-hand side on a fixed grid of step ``N^-depth``, starting
from the unit box on ``[0, 1)``.  Because ``N x - k`` maps grid points to
grid points, one iteration is exact index bookkeeping, and the sup-norm
difference of successive iterates doubles as the refinement residual of the
returned samples.  Each tap adds its term only at the grid points whose read
index falls inside the stored samples, as one strided slice; the terms it
skips are zeros, so the sums keep the bits of the full ones.  Supports stay
inside ``[0, (N g - 1)/(N - 1)]`` (which is ``[0, 2g - 1]`` in the dyadic
case).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import FilterBank, FilterCoeffs, normalization_check, orthogonality_check

__all__ = [
    "CASCADE_TOL",
    "CASCADE_MAX_SAMPLES",
    "WAVELET_TOL",
    "GRAM_SAMPLES",
    "SampledFunction",
    "CascadeResult",
    "GramReport",
    "cascade_iterate",
    "refinement_apply",
    "refinement_residual",
    "build_wavelets",
    "translate_gram",
    "frame_map_apply",
    "dilate",
]

CASCADE_TOL = 1e-9
# The largest cascade grid, in samples: one complex array of this length
# takes 64 MiB, and an iteration holds a few of them.
CASCADE_MAX_SAMPLES = 2**22
WAVELET_TOL = 1e-8  # the largest refinement residual of phi that `build_wavelets` accepts
GRAM_SAMPLES = 512  # the equispaced circle points at which `translate_gram` reads the frame bounds


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Samples on the grid ``x = index / scale**depth``; zero off the stored range.

    ``start`` is the grid index of ``values[0]``.  The function is understood
    to vanish exactly outside the stored index range, so the range doubles as
    the support.
    """

    values: np.ndarray
    scale: int
    depth: int
    start: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty one-dimensional sequence")
        if self.scale < 2:
            raise ValueError("scale must be at least 2")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "start", int(self.start))

    def __len__(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return float(self.scale) ** -self.depth

    @property
    def support(self) -> tuple[float, float]:
        return (self.start * self.step, (self.start + len(self) - 1) * self.step)

    def grid(self) -> np.ndarray:
        """The x coordinates of the stored samples."""
        return (self.start + np.arange(len(self))) * self.step

    def values_at(self, indices) -> np.ndarray:
        """Samples at the given grid indices, zero outside the stored range."""
        idx = np.asarray(indices, dtype=np.int64) - self.start
        inside = (idx >= 0) & (idx < len(self))
        out = np.zeros(idx.shape, dtype=np.complex128)
        out[inside] = self.values[idx[inside]]
        return out


@dataclass(frozen=True, eq=False)
class CascadeResult:
    phi: SampledFunction
    converged: bool
    last_delta: float
    iterations: int


def _dilated_filter_apply(f: SampledFunction, coeffs: FilterCoeffs, lo: int, hi: int) -> np.ndarray:
    """``sum_k c_k f(N x - k)`` sampled at grid indices ``lo..hi`` of f's grid.

    Tap k at output index q reads f's sample ``N q - k N^depth``; only the
    outputs whose read lands inside f's stored range get the term, as one
    strided slice of f's values.  The skipped terms are ``c_k * 0`` added to
    an accumulator that starts at ``+0``, so every output has the bits of the
    sum over all taps.
    """
    N = f.scale
    unit = N**f.depth
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    for i, c in enumerate(coeffs.taps):
        # stored index s = N q - shift lies in [0, len(f) - 1] for q in q0..q1 - 1
        shift = (coeffs.offset + i) * unit + f.start
        q0 = max(lo, -(-shift // N))
        q1 = min(hi, (shift + len(f) - 1) // N) + 1
        if q1 > q0:
            s = N * q0 - shift
            out[q0 - lo : q1 - lo] += c * f.values[s : s + N * (q1 - q0 - 1) + 1 : N]
    return out


def refinement_apply(phi: SampledFunction, bank: FilterBank) -> SampledFunction:
    """Apply ``phi(x) -> sum_k a_k phi(N x - k)`` once, on phi's own grid.

    The returned range covers both phi's range and the refined support, so a
    residual against the input sees every point where either side is nonzero.
    """
    if phi.scale != bank.N:
        raise ValueError(f"sample scale {phi.scale} differs from bank scale {bank.N}")
    low = bank.lowpass
    unit = bank.N**phi.depth
    # N p - k*unit in [start, start + len - 1]  =>  p in the ceil/floor range below
    ref_lo = -((-(phi.start + low.offset * unit)) // bank.N)
    ref_hi = (phi.start + len(phi) - 1 + (low.span - 1) * unit) // bank.N
    lo = min(phi.start, ref_lo)
    hi = max(phi.start + len(phi) - 1, ref_hi)
    return SampledFunction(_dilated_filter_apply(phi, low, lo, hi), bank.N, phi.depth, lo)


def refinement_residual(phi: SampledFunction, bank: FilterBank) -> float:
    """Sup over grid points of ``|phi(x) - sum_k a_k phi(N x - k)|``."""
    if phi.depth < 1:
        raise ValueError("refinement residual needs grid depth >= 1")
    refined = refinement_apply(phi, bank)
    indices = refined.start + np.arange(len(refined))
    return float(np.abs(phi.values_at(indices) - refined.values).max())


def cascade_iterate(
    bank: FilterBank,
    depth: int,
    max_iters: int = 60,
    tol: float = CASCADE_TOL,
) -> CascadeResult:
    """Iterate the refinement operator from the unit box on ``[0, 1)``.

    Runs on the fixed grid of step ``N^-depth`` covering the support bound
    ``[0, (N g - 1)/(N - 1)]``.  Converged means the sup-norm difference of
    successive iterates dropped to ``tol`` within ``max_iters``; iterations
    whose differences grow more than tenfold over five steps abort early.
    Banks failing translate orthonormality are rejected; orthogonal banks
    without the DC normalization only draw a warning, since the fixed point
    is then determined up to scaling but the box seed's mean is not preserved.
    """
    if depth < 1:
        raise ValueError("grid depth must be at least 1")
    N, g = bank.N, bank.g
    # the grid holds (N g - 1) N^depth / (N - 1) + 1 samples: find the deepest
    # grid within the limit before any N**depth is formed
    most, unit = 0, 1
    while ((N * g - 1) * unit * N) // (N - 1) + 1 <= CASCADE_MAX_SAMPLES:
        most, unit = most + 1, unit * N
    if depth > most:
        raise ValueError(
            f"depth = {depth} is too deep: at most {most} for N = {N}, g = {g}, "
            f"since the grid holds at most {CASCADE_MAX_SAMPLES} samples"
        )
    if not orthogonality_check(bank.lowpass, bank.N).passed:
        raise ValueError("cascade requires a low-pass passing translate orthonormality")
    if not normalization_check(bank.lowpass, bank.N).passed:
        warnings.warn(
            "low-pass is not DC-normalized; cascade runs but does not preserve the mean",
            stacklevel=2,
        )
    unit = N**depth
    hi = ((N * g - 1) * unit) // (N - 1)
    values = np.zeros(hi + 1, dtype=np.complex128)
    values[:unit] = 1.0  # unit box on [0, 1)
    phi = SampledFunction(values, N, depth, 0)

    deltas: list[float] = []
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = _dilated_filter_apply(phi, bank.lowpass, 0, hi)
        delta = float(np.abs(nxt - phi.values).max())
        phi = SampledFunction(nxt, N, depth, 0)
        deltas.append(delta)
        if delta <= tol:
            return CascadeResult(phi, True, delta, iterations)
        if len(deltas) >= 6 and delta > 10.0 * deltas[-6]:
            break
    return CascadeResult(phi, False, delta, iterations)


def build_wavelets(bank: FilterBank, phi: SampledFunction) -> tuple[SampledFunction, ...]:
    """Detail functions ``psi_j(x) = sum_k a^{(j)}_k phi(N x - k)``, j = 1..N-1.

    Requires phi to satisfy its refinement equation within ``WAVELET_TOL``;
    each wavelet shares phi's support bound.
    """
    res = refinement_residual(phi, bank)
    if res > WAVELET_TOL:
        raise ValueError(f"refinement residual {res:.3e} exceeds {WAVELET_TOL:.1e}")
    lo = phi.start
    hi = phi.start + len(phi) - 1
    return tuple(
        SampledFunction(_dilated_filter_apply(phi, f, lo, hi), bank.N, phi.depth, lo)
        for f in bank.filters[1:]
    )


@dataclass(frozen=True, eq=False)
class GramReport:
    """Translate inner products ``h_l = <phi, phi(. - l)>`` and frame bounds.

    ``gram[i, j] = h_{j-i}`` for translates ``0..lmax``; the frame bounds are
    the extrema of the trigonometric symbol ``sum_l h_l z^l`` on the circle.
    """

    gram: np.ndarray
    frame_bounds: tuple[float, float]


def translate_gram(phi: SampledFunction, lmax: int) -> GramReport:
    """Gram data of the integer translates of phi by grid quadrature.

    The box rule at step ``N^-depth`` is exact for functions that are
    piecewise constant on the grid and C^1-accurate otherwise.  The frame
    bounds are the symbol's extrema over ``GRAM_SAMPLES`` circle points and
    the angles of the roots of its derivative, so a zero between the points
    is not missed.
    """
    width = phi.support[1] - phi.support[0]
    if lmax < width:
        raise ValueError(f"lmax = {lmax} is smaller than the support width {width}")
    unit = phi.scale**phi.depth
    indices = phi.start + np.arange(len(phi))
    h = np.zeros(2 * lmax + 1, dtype=np.complex128)
    for l in range(-lmax, lmax + 1):
        shifted = phi.values_at(indices - l * unit)
        h[l + lmax] = np.vdot(phi.values, shifted) * phi.step
    if not np.isfinite(h).all():
        raise ValueError("translate inner products are not finite")
    herm = float(np.abs(h - h[::-1].conj()).max())
    if herm > 1e-12:
        raise ValueError(f"translate inner products fail Hermitian symmetry by {herm:.3e}")
    i, j = np.indices((lmax + 1, lmax + 1))
    gram = h[(j - i) + lmax]
    ls = np.arange(-lmax, lmax + 1)
    # the extrema sit where d/dtheta sum_l h_l e^{i l theta} vanishes, at the
    # angles of the unit-circle roots of sum_l l h_l z^{l + lmax}
    critical = np.angle(np.roots((ls * h)[::-1]))
    theta = np.concatenate([2.0 * np.pi * np.arange(GRAM_SAMPLES) / GRAM_SAMPLES, critical])
    symbol = (np.exp(1j * np.outer(theta, ls)) @ h).real
    return GramReport(gram, (float(symbol.min()), float(symbol.max())))


def frame_map_apply(phi: SampledFunction, xi) -> SampledFunction:
    """The synthesis map ``xi -> sum_k xi_k phi(x - k)`` on phi's grid.

    ``xi`` is a finite sequence indexed from 0.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("xi must be a nonempty one-dimensional sequence")
    unit = phi.scale**phi.depth
    out = np.zeros(len(phi) + (xi.size - 1) * unit, dtype=np.complex128)
    for k, c in enumerate(xi):
        if c != 0:
            out[k * unit : k * unit + len(phi)] += c * phi.values
    return SampledFunction(out, phi.scale, phi.depth, phi.start)


def dilate(f: SampledFunction) -> SampledFunction:
    """The unitary scaling ``(U f)(x) = f(x / N) / sqrt(N)``, one grid level coarser.

    Sample index q of the result (step ``N^{-(depth-1)}``) reads sample index
    q of the input, so only the depth tag and the amplitude change.
    """
    return SampledFunction(f.values / math.sqrt(f.scale), f.scale, f.depth - 1, f.start)
