"""Command-line interface wiring design, verification, cascade, transforms and
irreducibility reports to files.

Every verb first checks the bank or loop it reads or designs, by
`filters.verify_bank` or `filters.relations_check` (the one orthogonality
decider), and computes or writes nothing from one that fails.

Exit codes: 0 success, 1 verification failure (that step or a non-factorable
loop), 2 input or parse errors.  No environment variables are consulted and
every run is deterministic for fixed inputs; reports always state the
tolerance they used.

Importing this module loads only `filters` and `storage`; each verb imports
the modules it runs, so a verb's start-up pays for no other verb's modules.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import filters, storage

# Copies of bounds that the parser prints or uses as defaults, so that building
# it imports neither module; tests pin each to the module's constant.
CASCADE_TOL = 1e-9  # cascade.CASCADE_TOL
CASCADE_MAX_SAMPLES = 2**22  # cascade.CASCADE_MAX_SAMPLES


class VerificationError(Exception):
    """A bank or loop failed the verify-first step."""


def _positive(convert):
    """An argparse type: a finite value above zero, as ``convert`` parses it."""

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _verify(value, tol: float = filters.ALG_TOL, show: bool = False):
    """Return a bank or loop that passes its check; print the report if ``show``.

    Raises VerificationError naming the failing residual and its tolerance.
    """
    if isinstance(value, filters.FilterBank):
        report = filters.verify_bank(value, tol)
        rel, norm = report.relations, report.normalization
    else:  # a loop
        rel, norm = filters.relations_check(value.coeffs, tol), None
    where = "(m, i, j) = ({}, {}, {})".format(*rel.worst)
    checks = [(rel, f"orthogonality relations: residual {rel.residual:.3e} at {where}, tol {rel.tol:.1e}")]
    if norm is not None:
        checks.append((norm, f"DC normalization: residual {norm.residual:.3e}, tol {norm.tol:.1e}"))
    for check, line in checks:
        if not check.passed:
            raise VerificationError(f"verification failed: {line}")
    if show:
        print("\n".join(line for _, line in checks))
    return value


def _bank_from_design(args) -> filters.FilterBank:
    if args.preset:
        return filters.preset_bank(args.preset)
    from . import loops

    if args.spins:
        return loops.loop_to_filters(loops.synthesize_from_spins(storage.load(args.spins, "spins")))
    return loops.loop_to_filters(storage.load(args.loop, "loop"))


def _cmd_design(args) -> int:
    bank = _verify(_bank_from_design(args), args.tol, show=True)
    storage.save(bank, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_verify(args) -> int:
    _verify(storage.load(args.bank, "bank"), args.tol, show=True)
    print("verified")
    return 0


def _cmd_cascade(args) -> int:
    from . import cascade as casc

    bank = _verify(storage.load(args.bank, "bank"))
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
    from . import transform

    bank = _verify(storage.load(args.bank, "bank"))
    signal = storage.load(args.signal, "signal")
    tree = transform.analyze(signal, bank, args.levels)
    storage.save(tree, args.output)
    print(f"wrote {args.output} ({tree.coefficient_count()} coefficients, {tree.levels} levels)")
    return 0


def _cmd_synth(args) -> int:
    from . import transform

    bank = _verify(storage.load(args.bank, "bank"))
    tree = storage.load(args.tree, "tree")
    signal = transform.synthesize(tree, bank)
    storage.save(signal, args.output)
    print(f"wrote {args.output} ({signal.size} samples)")
    return 0


def _cmd_irreducibility(args) -> int:
    from . import cuntz, loops

    bank = _verify(storage.load(args.bank, "bank"))
    span = bank.N * bank.g
    if args.detector == "both" and span > cuntz.PROBE_MAX_WINDOW:
        raise ValueError(
            f"the bank's tap span N*g = {span} exceeds the half-line probe's largest window "
            f"{cuntz.PROBE_MAX_WINDOW}, so it cannot be probed; use --detector corner"
        )
    corner = cuntz.detect_monomial_corner(loops.filters_to_loop(bank))
    report = {
        "reducible": corner.reducible,
        "M": corner.M,
        "exponents": list(corner.exponents),
        "detector": "corner",
        "residual": corner.residual,
        "confidence": corner.confidence,
    }
    print(storage.json_text(report), end="")
    if args.output:
        storage.save_report(report, args.output)
        print(f"wrote {args.output}")
    if args.detector == "both":
        # a candidate means constant leading loop columns, which the corner
        # already reports as exponent-0 monomials, so the line decides nothing
        probe = cuntz.invariant_subspace_probe(bank, max(32, span))
        print(
            f"halfline probe: candidate_found={probe.candidate_found} "
            f"(residual {probe.residual:.3e}, window {probe.window})"
        )
    return 0


def _cmd_factor(args) -> int:
    from . import loops

    loop = _verify(storage.load_bank_or_loop(args.input))
    if isinstance(loop, filters.FilterBank):
        loop = loops.filters_to_loop(loop)
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
    from . import loops

    loop = loops.filters_to_loop(_verify(storage.load(args.bank, "bank")))
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
    p.add_argument("--tol", type=_positive(float), default=filters.ALG_TOL)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("verify", help="check the orthogonality relations and the DC sum")
    p.add_argument("bank")
    p.add_argument("--tol", type=_positive(float), default=filters.ALG_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cascade", help="compute the scaling function samples")
    p.add_argument("bank")
    p.add_argument(
        "--depth", type=int, default=8,
        help=f"grid step N^-depth (the grid may hold at most {CASCADE_MAX_SAMPLES} samples)",
    )
    p.add_argument("--max-iters", type=_positive(int), default=60)
    p.add_argument("--tol", type=_positive(float), default=CASCADE_TOL)
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
    p.add_argument(
        "--detector", choices=("corner", "both"), default="corner",
        help="both: also print the half-line probe's line, at window max(32, N*g)",
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
    except VerificationError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # StorageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
