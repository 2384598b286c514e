"""File formats: JSON for structured values, CSV for signals and samples.

Complex scalars are always serialized as ``[re, im]`` pairs of IEEE-754
doubles; Python's float formatting is shortest-round-trip, so JSON kinds
reload bit-exactly and CSV kinds within one ulp.  Every complex array goes
through one codec (`_array_json`, `_array`) and every JSON text through one
writer (`json_text`).  Each kind is one row of ``_KIND_TABLE``: the types it
saves, its encoder and its decoder.  Integer fields must be JSON integers,
flags JSON booleans, pair entries JSON numbers, and non-finite values are
rejected both ways.  Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import itertools
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


def _array_json(values) -> list:
    """A complex array of any rank as nested lists ending in ``[re, im]`` pairs."""
    values = np.asarray(values, dtype=np.complex128)
    return np.stack([values.real, values.imag], -1).tolist()


def _array(value, where: str, ndim: int) -> np.ndarray:
    """Decode `_array_json` output of rank ``ndim`` bit for bit.

    The float64 pairs are viewed as complex128, which keeps every bit,
    including the sign of a zero; ``re + 1j*im`` would not.
    """
    try:
        parts = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        parts = None
    if parts is None or parts.ndim != ndim + 1 or parts.shape[-1] != 2:
        raise StorageError(f"{where}: expected {ndim}-deep nested lists of [re, im] pairs")
    entries = value
    for _ in range(ndim):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        raise StorageError(f"{where}: [re, im] entries must be JSON numbers")
    if not np.isfinite(parts).all():
        raise StorageError(f"{where}: non-finite value")
    return parts.view(np.complex128)[..., 0]


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


def _list(d: dict, key: str, where: str) -> list:
    value = _get(d, key, where)
    if not isinstance(value, list):
        raise StorageError(f"{where}.{key}: expected a list")
    return value


# JSON encoders / decoders per kind

def bank_to_dict(bank: FilterBank) -> dict:
    return {
        "N": bank.N,
        "g": bank.g,
        "filters": [{"offset": f.offset, "taps": _array_json(f.taps)} for f in bank.filters],
        "meta": {"name": bank.name, "lowpass_normalized": bank.lowpass_normalized},
    }


def bank_from_dict(d: dict) -> FilterBank:
    filters = []
    for j, entry in enumerate(_list(d, "filters", "bank")):
        taps = _array(_get(entry, "taps", f"bank.filters[{j}]"), f"bank.filters[{j}].taps", 1)
        offset = _int(entry, "offset", f"bank.filters[{j}]")
        filters.append(FilterCoeffs(taps, offset=offset, unpruned=bool(taps[0] == 0 or taps[-1] == 0)))
    meta = d.get("meta", {})
    if not isinstance(meta, dict):
        raise StorageError("bank.meta: expected a JSON object")
    normalized = meta.get("lowpass_normalized", True)
    if not isinstance(normalized, bool):
        raise StorageError(f"bank.meta.lowpass_normalized: expected true or false, got {normalized!r}")
    name = meta.get("name", "")
    if not isinstance(name, str):
        raise StorageError(f"bank.meta.name: expected a string, got {name!r}")
    return FilterBank(
        _int(d, "N", "bank"),
        _int(d, "g", "bank"),
        tuple(filters),
        lowpass_normalized=normalized,
        name=name,
    )


def loop_to_dict(loop: PolyLoop) -> dict:
    return {"N": loop.N, "coeffs": _array_json(loop.coeffs)}


def loop_from_dict(d: dict) -> PolyLoop:
    return PolyLoop(_int(d, "N", "loop"), _array(_get(d, "coeffs", "loop"), "loop.coeffs", 3))


def spins_to_dict(sf: SpinFactorization) -> dict:
    return {
        "N": sf.N,
        "V": _array_json(sf.V),
        "factors": [{"vectors": _array_json(vecs)} for vecs in sf.factors],
    }


def spins_from_dict(d: dict) -> SpinFactorization:
    V = _array(_get(d, "V", "spins"), "spins.V", 2)
    factors = [
        _array(_get(entry, "vectors", f"spins.factors[{i}]"), f"spins.factors[{i}].vectors", 2)
        for i, entry in enumerate(_list(d, "factors", "spins"))
    ]
    return SpinFactorization(_int(d, "N", "spins"), V, tuple(factors))


def tree_to_dict(tree: CoeffTree) -> dict:
    return {
        "N": tree.N,
        "levels": tree.levels,
        "approx": _array_json(tree.approx),
        "details": [_array_json(channels) for channels in tree.details],
    }


def tree_from_dict(d: dict) -> CoeffTree:
    details = [
        tuple(_array(channels, f"tree.details[{n}]", 2))
        for n, channels in enumerate(_list(d, "details", "tree"))
    ]
    return CoeffTree(
        _int(d, "N", "tree"),
        _int(d, "levels", "tree"),
        _array(_get(d, "approx", "tree"), "tree.approx", 1),
        tuple(details),
    )


# CSV kinds: one writer and one parser for rows ``<first column>,re,im``

def _csv_text(header: str, first: np.ndarray, values: np.ndarray) -> str:
    if not np.isfinite(values).all():
        raise StorageError("cannot store non-finite values")
    rows = zip(first.tolist(), values.real.tolist(), values.imag.tolist())
    return "\n".join([header, *(f"{a!r},{re!r},{im!r}" for a, re, im in rows)]) + "\n"


def _csv_parse(path: str, kind: str, header: str, first_type) -> tuple[list, np.ndarray]:
    lines = _read(path, kind).strip().splitlines()
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
    index, values = _csv_parse(path, "signal", "index,re,im", int)
    for i, idx in enumerate(index):
        if idx != i:
            raise StorageError(f"{path}:{i + 2}: index {idx} out of order")
    return values


def _samples_from_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    xs, values = _csv_parse(path, "samples", "x,re,im", float)
    return np.array(xs), values


# reading and writing JSON, and the kind table

def _read(path: str, kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise StorageError(f"{path}: no such file") from None
    except OSError as exc:  # a directory, no permission, an I/O error
        raise StorageError(f"{path}: {kind}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise StorageError(f"{path}: {kind}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_json(path: str, kind: str):
    text = _read(path, kind)

    def reject(token: str):
        raise ValueError(f"non-finite number {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        reason = f"invalid JSON at line {exc.lineno}: {exc.msg}"
    except (ValueError, RecursionError) as exc:  # NaN/Infinity, an over-long integer, deep nesting
        reason = str(exc)
    raise StorageError(f"{path}: {kind}: {reason}")


def _from_json(path: str, kind: str, from_dict, data):
    try:
        return from_dict(data)
    except StorageError as exc:  # names its field, and so its kind, already
        raise StorageError(f"{path}: {exc}") from None
    except ValueError as exc:  # the value's constructor refused it
        raise StorageError(f"{path}: {kind}: {exc}") from None


def json_text(data) -> str:
    """The one JSON writer: one line, sorted keys, non-finite numbers refused."""
    try:
        return json.dumps(data, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise StorageError("cannot store non-finite values") from None


def _json_kind(kind: str, cls: type, to_dict, from_dict) -> tuple:
    return (
        (cls,),
        lambda obj: json_text(to_dict(obj)),
        lambda path: _from_json(path, kind, from_dict, _read_json(path, kind)),
    )


# kind -> (the types it saves, value -> text, path -> value)
_KIND_TABLE = {
    "bank": _json_kind("bank", FilterBank, bank_to_dict, bank_from_dict),
    "loop": _json_kind("loop", PolyLoop, loop_to_dict, loop_from_dict),
    "spins": _json_kind("spins", SpinFactorization, spins_to_dict, spins_from_dict),
    "signal": ((np.ndarray, list, tuple), _signal_to_text, _signal_from_file),
    "tree": _json_kind("tree", CoeffTree, tree_to_dict, tree_from_dict),
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
    for kind, (types, encode, _) in _KIND_TABLE.items():
        if isinstance(obj, types):
            try:
                atomic_write(path, encode(obj))
            except OSError as exc:  # reported with the user's path, not the temporary one
                raise StorageError(f"{path}: {kind}: cannot write: {exc.strerror or exc}") from None
            return
    raise StorageError(f"no storage kind for object of type {type(obj).__name__}")


def load(path: str, kind: str):
    """Read a value of the given kind; raises StorageError with context on mismatch."""
    if kind not in _KIND_TABLE:
        raise StorageError(f"unknown kind {kind!r}; expected one of {KINDS}")
    _, _, decode = _KIND_TABLE[kind]
    return decode(path)


def load_bank_or_loop(path: str):
    """Read a bank or a loop JSON file, told apart by its 'filters' or 'coeffs' field."""
    data = _read_json(path, "bank or loop")
    if isinstance(data, dict) and "filters" in data:
        return _from_json(path, "bank", bank_from_dict, data)
    if isinstance(data, dict) and "coeffs" in data:
        return _from_json(path, "loop", loop_from_dict, data)
    raise StorageError(f"{path}: neither a bank nor a loop (no 'filters'/'coeffs' field)")
