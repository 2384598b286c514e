"""File formats: JSON for structured values, CSV for signals and samples.

Complex scalars are always serialized as ``[re, im]`` pairs of IEEE-754
doubles; Python's float formatting is shortest-round-trip, so JSON kinds
reload bit-exactly and CSV kinds within one ulp.  Each kind is one row of
``_KIND_TABLE``: the types it saves, its encoder and its decoder.  Integer
fields must be JSON integers, flags JSON booleans, and non-finite values are
rejected both ways.  Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .cascade import SampledFunction
from .filters import FilterBank, FilterCoeffs
from .loops import PolyLoop, SpinFactorization
from .transform import CoeffTree

__all__ = ["StorageError", "KINDS", "save", "load", "atomic_write"]

class StorageError(ValueError):
    """A file does not match the schema for its kind."""


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pairs(values) -> list[list[float]]:
    return [_pair(z) for z in np.asarray(values, dtype=np.complex128)]


def _unpair(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise StorageError(f"{where}: expected a [re, im] pair, got {v!r}")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError):
        raise StorageError(f"{where}: non-numeric entry in {v!r}") from None


def _unpairs(vs, where: str) -> np.ndarray:
    if not isinstance(vs, list) or not vs:
        raise StorageError(f"{where}: expected a nonempty list of [re, im] pairs")
    values = np.array([_unpair(v, f"{where}[{i}]") for i, v in enumerate(vs)])
    if not np.isfinite(values).all():
        raise StorageError(f"{where}: non-finite value")
    return values


def _get(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise StorageError(f"{where}: expected a JSON object")
    if key not in d:
        raise StorageError(f"{where}: missing field {key!r}")
    return d[key]


def _int(d: dict, key: str, where: str) -> int:
    value = _get(d, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise StorageError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StorageError(f"{where}: expected a nonempty list of rows")
    return np.stack([_unpairs(row, f"{where}[{i}]") for i, row in enumerate(rows)])


# JSON encoders / decoders per kind

def bank_to_dict(bank: FilterBank) -> dict:
    return {
        "N": bank.N,
        "g": bank.g,
        "filters": [{"offset": f.offset, "taps": _pairs(f.taps)} for f in bank.filters],
        "meta": {"name": bank.name, "lowpass_normalized": bank.lowpass_normalized},
    }


def bank_from_dict(d: dict) -> FilterBank:
    filters = []
    raw = _get(d, "filters", "bank")
    if not isinstance(raw, list):
        raise StorageError("bank.filters: expected a list")
    for j, entry in enumerate(raw):
        taps = _unpairs(_get(entry, "taps", f"bank.filters[{j}]"), f"bank.filters[{j}].taps")
        offset = _int(entry, "offset", f"bank.filters[{j}]")
        unpruned = bool(taps[0] == 0 or taps[-1] == 0)
        filters.append(FilterCoeffs(taps, offset=offset, unpruned=unpruned))
    meta = d.get("meta", {})
    if not isinstance(meta, dict):
        raise StorageError("bank.meta: expected a JSON object")
    normalized = meta.get("lowpass_normalized", True)
    if not isinstance(normalized, bool):
        raise StorageError(f"bank.meta.lowpass_normalized: expected true or false, got {normalized!r}")
    try:
        return FilterBank(
            _int(d, "N", "bank"),
            _int(d, "g", "bank"),
            tuple(filters),
            lowpass_normalized=normalized,
            name=str(meta.get("name", "")),
        )
    except ValueError as exc:
        raise StorageError(f"bank: {exc}") from None


def loop_to_dict(loop: PolyLoop) -> dict:
    return {
        "N": loop.N,
        "coeffs": [[_pairs(row) for row in coeff] for coeff in loop.coeffs],
    }


def loop_from_dict(d: dict) -> PolyLoop:
    raw = _get(d, "coeffs", "loop")
    if not isinstance(raw, list) or not raw:
        raise StorageError("loop.coeffs: expected a nonempty list")
    coeffs = np.stack([_matrix(c, f"loop.coeffs[{i}]") for i, c in enumerate(raw)])
    try:
        return PolyLoop(_int(d, "N", "loop"), coeffs)
    except ValueError as exc:
        raise StorageError(f"loop: {exc}") from None


def spins_to_dict(sf: SpinFactorization) -> dict:
    return {
        "N": sf.N,
        "V": [_pairs(row) for row in sf.V],
        "factors": [{"vectors": [_pairs(v) for v in vecs]} for vecs in sf.factors],
    }


def spins_from_dict(d: dict) -> SpinFactorization:
    V = _matrix(_get(d, "V", "spins"), "spins.V")
    raw = _get(d, "factors", "spins")
    if not isinstance(raw, list):
        raise StorageError("spins.factors: expected a list")
    factors = []
    for i, entry in enumerate(raw):
        vecs = _get(entry, "vectors", f"spins.factors[{i}]")
        factors.append(_matrix(vecs, f"spins.factors[{i}].vectors"))
    try:
        return SpinFactorization(_int(d, "N", "spins"), V, tuple(factors))
    except ValueError as exc:
        raise StorageError(f"spins: {exc}") from None


def tree_to_dict(tree: CoeffTree) -> dict:
    return {
        "N": tree.N,
        "levels": tree.levels,
        "approx": _pairs(tree.approx),
        "details": [[_pairs(c) for c in channels] for channels in tree.details],
    }


def tree_from_dict(d: dict) -> CoeffTree:
    raw = _get(d, "details", "tree")
    if not isinstance(raw, list):
        raise StorageError("tree.details: expected a list")
    details = []
    for n, channels in enumerate(raw, start=1):
        if not isinstance(channels, list):
            raise StorageError(f"tree.details[{n - 1}]: expected a list of channels")
        details.append(
            tuple(
                _unpairs(c, f"tree.details[{n - 1}][{j}]") for j, c in enumerate(channels)
            )
        )
    try:
        return CoeffTree(
            _int(d, "N", "tree"),
            _int(d, "levels", "tree"),
            _unpairs(_get(d, "approx", "tree"), "tree.approx"),
            tuple(details),
        )
    except ValueError as exc:
        raise StorageError(f"tree: {exc}") from None


# CSV kinds: one writer and one parser for rows ``<first column>,re,im``

def _csv_text(header: str, first: np.ndarray, values: np.ndarray) -> str:
    if not np.isfinite(values).all():
        raise StorageError("cannot store non-finite values")
    rows = zip(first.tolist(), values.real.tolist(), values.imag.tolist())
    return "\n".join([header, *(f"{a!r},{re!r},{im!r}" for a, re, im in rows)]) + "\n"


def _csv_parse(path: str, header: str, first_type) -> tuple[list, np.ndarray]:
    lines = _read(path).strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise StorageError(f"{path}:1: expected header {header!r}")
    firsts, values = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise StorageError(f"{path}:{ln}: expected 3 comma-separated fields")
        try:
            first, re, im = first_type(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise StorageError(f"{path}:{ln}: non-numeric field") from None
        if not (math.isfinite(first) and math.isfinite(re) and math.isfinite(im)):
            raise StorageError(f"{path}:{ln}: non-finite field")
        firsts.append(first)
        values.append(complex(re, im))
    if not values:
        raise StorageError(f"{path}: file holds no rows")
    return firsts, np.array(values)


def _signal_to_text(obj) -> str:
    values = np.asarray(obj, dtype=np.complex128)
    if values.ndim != 1:
        raise StorageError("signals must be one-dimensional")
    return _csv_text("index,re,im", np.arange(values.size), values)


def _signal_from_file(path: str) -> np.ndarray:
    index, values = _csv_parse(path, "index,re,im", int)
    for i, idx in enumerate(index):
        if idx != i:
            raise StorageError(f"{path}:{i + 2}: index {idx} out of order")
    return values


def _samples_from_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    xs, values = _csv_parse(path, "x,re,im", float)
    return np.array(xs), values


# reading, and the kind table

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise StorageError(f"{path}: no such file") from None


def read_json(path: str):
    """Parse a JSON file with the same errors as `load`, before its kind is known."""

    def reject(token: str):
        raise StorageError(f"{path}: non-finite number {token}")

    try:
        return json.loads(_read(path), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


def _json_kind(cls: type, to_dict, from_dict) -> tuple:
    def encode(obj) -> str:
        try:
            return json.dumps(to_dict(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise StorageError("cannot store non-finite values") from None

    def decode(path: str):
        data = read_json(path)
        try:
            return from_dict(data)
        except StorageError as exc:
            raise StorageError(f"{path}: {exc}") from None

    return (cls,), encode, decode


# kind -> (the types it saves, value -> text, path -> value)
_KIND_TABLE = {
    "bank": _json_kind(FilterBank, bank_to_dict, bank_from_dict),
    "loop": _json_kind(PolyLoop, loop_to_dict, loop_from_dict),
    "spins": _json_kind(SpinFactorization, spins_to_dict, spins_from_dict),
    "signal": ((np.ndarray, list, tuple), _signal_to_text, _signal_from_file),
    "tree": _json_kind(CoeffTree, tree_to_dict, tree_from_dict),
    "samples": (
        (SampledFunction,),
        lambda f: _csv_text("x,re,im", f.grid(), f.values),
        _samples_from_file,
    ),
}
KINDS = tuple(_KIND_TABLE)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` through a uniquely named temporary file beside ``path``.

    The temporary file is created like `open` would create ``path`` (mode
    0666 less the umask) and is removed if anything fails before the rename.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save(obj, path: str) -> None:
    """Write a value in the format of its kind (dispatch on type)."""
    for types, encode, _ in _KIND_TABLE.values():
        if isinstance(obj, types):
            atomic_write(path, encode(obj))
            return
    raise StorageError(f"no storage kind for object of type {type(obj).__name__}")


def load(path: str, kind: str):
    """Read a value of the given kind; raises StorageError with context on mismatch."""
    if kind not in _KIND_TABLE:
        raise StorageError(f"unknown kind {kind!r}; expected one of {KINDS}")
    _, _, decode = _KIND_TABLE[kind]
    return decode(path)
