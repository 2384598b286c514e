"""Toolkit for compactly supported N-band orthogonal wavelet filter banks.

Filter banks, their polyphase loops and spin-vector factorizations, finite
realizations of the associated isometry relations, scaling-function cascades,
exact subband transforms, and reducibility detection.

``import wavebank`` loads no submodule: each public name, and each submodule
named below, is imported on first access (PEP 562), so a caller pays only for
the modules it uses.
"""

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "filters": (
        "FilterCoeffs",
        "FilterBank",
        "coeffs_from_dense",
        "normalization_check",
        "orthogonality_check",
        "symbol_eval",
        "haar_complement",
        "preset_bank",
        "verify_bank",
    ),
    "loops": (
        "PolyLoop",
        "SpinFactorization",
        "NotFactorableError",
        "filters_to_loop",
        "loop_to_filters",
        "unitarity_check",
        "synthesize_from_spins",
        "factor_to_spins",
    ),
    "cuntz": (
        "CuntzSystem",
        "SubbandLadder",
        "CornerReport",
        "ProbeReport",
        "build_operators",
        "verify_cuntz",
        "subband_ladder",
        "detect_monomial_corner",
        "invariant_subspace_probe",
        "stretched_haar_adjusted",
    ),
    "cascade": (
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
    ),
    "transform": ("CoeffTree", "analyze", "synthesize", "energy_report"),
    "storage": ("StorageError", "save", "load"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, unlike importlib.import_module, is
    # the one `python -X importtime` reports; it binds the submodule here
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
