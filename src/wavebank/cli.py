"""Command-line interface wiring design, verification, cascade, transforms and
irreducibility reports to files.

Exit codes: 0 success, 1 verification failure (a check above tolerance, a
non-factorable loop, or contradictory decisive irreducibility verdicts),
2 input or parse errors.  No environment variables are consulted and every
run is deterministic for fixed inputs; reports always state the tolerance
they used.
"""

from __future__ import annotations

import argparse
import sys

from . import cascade as casc
from . import cuntz, filters, loops, storage, transform


def _bank_from_design(args) -> filters.FilterBank:
    if args.preset:
        return filters.preset_bank(args.preset)
    if args.spins:
        sf = storage.load(args.spins, "spins")
        return loops.loop_to_filters(loops.synthesize_from_spins(sf))
    loop = storage.load(args.loop, "loop")
    return loops.loop_to_filters(loop)


def _print_bank_checks(bank: filters.FilterBank, tol: float, samples: int) -> bool:
    report = filters.verify_bank(bank, tol=tol, num_samples=samples)
    loop = loops.filters_to_loop(bank)
    unit = loops.unitarity_check(loop, max(2 * loop.degree + 1, samples))
    ok = report.passed and unit.passed
    for j, r in enumerate(report.orthogonality):
        print(
            f"orthogonality channel {j}: {'pass' if r.passed else 'FAIL'} "
            f"(residual {r.residual:.3e}, tol {r.tol:.1e}, worst lag {r.worst_lag})"
        )
    if report.normalization is not None:
        r = report.normalization
        print(f"normalization: {'pass' if r.passed else 'FAIL'} (residual {r.residual:.3e}, tol {r.tol:.1e})")
    q = report.qmf
    print(
        f"power identity: {'pass' if q.passed else 'FAIL'} "
        f"(residual {q.max_residual:.3e}, tol {q.tol:.1e}, {q.num_samples} samples)"
    )
    print(
        f"loop unitarity: {'pass' if unit.passed else 'FAIL'} "
        f"(residual {unit.max_residual:.3e}, tol {unit.tol:.1e}, {unit.num_samples} samples)"
    )
    return ok


def _cmd_design(args) -> int:
    bank = _bank_from_design(args)
    ok = _print_bank_checks(bank, args.tol, args.samples)
    if not ok:
        print("designed bank failed verification", file=sys.stderr)
        return 1
    storage.save(bank, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_verify(args) -> int:
    bank = storage.load(args.bank, "bank")
    ok = _print_bank_checks(bank, args.tol, args.samples)
    print("verified" if ok else "verification FAILED")
    return 0 if ok else 1


def _cmd_cascade(args) -> int:
    bank = storage.load(args.bank, "bank")
    result = casc.cascade_iterate(bank, args.depth, max_iters=args.max_iters, tol=args.tol)
    print(
        f"cascade: converged={result.converged} after {result.iterations} iterations "
        f"(last delta {result.last_delta:.3e}, tol {args.tol:.1e})"
    )
    lo, hi = result.phi.support
    print(f"support [{lo:g}, {hi:g}], grid step {result.phi.step:g}")
    psis = casc.build_wavelets(bank, result.phi) if args.wavelets else []
    storage.save(result.phi, args.output)
    print(f"wrote {args.output}")
    for j, psi in enumerate(psis, start=1):
        path = f"{args.wavelets}{j}.csv"
        storage.save(psi, path)
        print(f"wrote {path}")
    return 0


def _cmd_analyze(args) -> int:
    bank = storage.load(args.bank, "bank")
    signal = storage.load(args.signal, "signal")
    tree = transform.analyze(signal, bank, args.levels)
    storage.save(tree, args.output)
    print(f"wrote {args.output} ({tree.coefficient_count()} coefficients, {tree.levels} levels)")
    return 0


def _cmd_synth(args) -> int:
    bank = storage.load(args.bank, "bank")
    tree = storage.load(args.tree, "tree")
    signal = transform.synthesize(tree, bank)
    storage.save(signal, args.output)
    print(f"wrote {args.output} ({signal.size} samples)")
    return 0


def _cmd_irreducibility(args) -> int:
    bank = storage.load(args.bank, "bank")
    span = bank.N * bank.g
    if args.detector != "corner" and not args.window and span > cuntz.PROBE_MAX_WINDOW:
        raise ValueError(
            f"the bank's tap span N*g = {span} exceeds the half-line probe's largest window "
            f"{cuntz.PROBE_MAX_WINDOW}, so it cannot be probed; use --detector corner"
        )
    loop = loops.filters_to_loop(bank)
    window = args.window if args.window else max(32, span)

    corner = cuntz.detect_monomial_corner(loop) if args.detector in ("corner", "both") else None
    probe = (
        cuntz.invariant_subspace_probe(bank, window)
        if args.detector in ("halfline", "both")
        else None
    )

    if corner is not None:
        report = {
            "reducible": corner.reducible,
            "M": corner.M,
            "exponents": list(corner.exponents),
            "detector": "corner",
            "residual": corner.residual,
            "confidence": corner.confidence,
        }
    else:
        report = {
            "reducible": probe.candidate_found,
            "M": 0,
            "exponents": [],
            "detector": "halfline",
            "residual": probe.residual,
            "confidence": "evidence",
        }
    text = storage.json_text(report)
    print(text, end="")
    if args.output:
        storage.save_report(report, args.output)
        print(f"wrote {args.output}")

    if args.detector == "both":
        print(
            f"halfline probe: candidate_found={probe.candidate_found} "
            f"(residual {probe.residual:.3e}, window {probe.window})"
        )
        # The probe only certifies reducibility when it finds the half-line
        # invariant; a decisive empty corner contradicting a found candidate
        # is a genuine inconsistency.
        if probe.candidate_found and corner.confidence == "decisive" and not corner.reducible:
            print("decisive-mode disagreement between detectors", file=sys.stderr)
            return 1
    return 0


def _cmd_factor(args) -> int:
    loop = storage.load_bank_or_loop(args.input)
    if isinstance(loop, filters.FilterBank):
        loop = loops.filters_to_loop(loop)
    unit = loops.unitarity_check(loop)
    if not unit.passed:
        print(
            f"loop fails unitarity (residual {unit.max_residual:.3e}, tol {unit.tol:.1e})",
            file=sys.stderr,
        )
        return 1
    try:
        sf = loops.factor_to_spins(loop)
    except loops.NotFactorableError as exc:
        print(f"not factorable: {exc}", file=sys.stderr)
        return 1
    storage.save(sf, args.output)
    ranks = [vecs.shape[0] for vecs in sf.factors]
    print(f"wrote {args.output} ({len(sf.factors)} factors, ranks {ranks})")
    return 0


def _cmd_loop(args) -> int:
    bank = storage.load(args.bank, "bank")
    loop = loops.filters_to_loop(bank)
    storage.save(loop, args.output)
    print(f"wrote {args.output} (degree {loop.degree})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebank",
        description="Design, verify and run compactly supported N-band wavelet filter banks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("design", help="build a bank from a preset, spin file, or loop file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="haar | db4 | stretched-haar:k")
    src.add_argument("--spins", help="spin factorization JSON")
    src.add_argument("--loop", help="loop JSON")
    p.add_argument("--tol", type=float, default=filters.ALG_TOL)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("verify", help="run every filter-level and loop-level check")
    p.add_argument("bank")
    p.add_argument("--tol", type=float, default=filters.ALG_TOL)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cascade", help="compute the scaling function samples")
    p.add_argument("bank")
    p.add_argument(
        "--depth", type=int, default=8,
        help=f"grid step N^-depth (the grid may hold at most {casc.CASCADE_MAX_SAMPLES} samples)",
    )
    p.add_argument("--max-iters", type=int, default=60)
    p.add_argument("--tol", type=float, default=casc.CASCADE_TOL)
    p.add_argument("--wavelets", help="also write detail functions to PREFIX<j>.csv")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("transform-analyze", help="subband-analyze a signal CSV")
    p.add_argument("signal")
    p.add_argument("--bank", required=True)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transform-synth", help="reconstruct a signal from a coefficient tree")
    p.add_argument("tree")
    p.add_argument("--bank", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("irreducibility", help="decide reducibility of the bank's operator system")
    p.add_argument("bank")
    p.add_argument("--detector", choices=("corner", "halfline", "both"), default="corner")
    p.add_argument(
        "--window", type=int, default=0,
        help=f"half-line probe window (default max(32, N*g), at most {cuntz.PROBE_MAX_WINDOW})",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_irreducibility)

    p = sub.add_parser("factor", help="factor a loop (or a bank's loop) into spin vectors")
    p.add_argument("input", help="loop or bank JSON")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("loop", help="convert a bank to its polyphase loop")
    p.add_argument("bank")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_loop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # StorageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
