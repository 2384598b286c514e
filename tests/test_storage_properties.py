"""Property tests of the codecs: bit-exact round trips and strict decoding.

Values are compared through their ``uint64`` views, because ``np.array_equal``
treats ``-0.0`` and ``0.0`` as equal and so cannot see a lost sign.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spins
from wavebank import (
    CoeffTree,
    FilterBank,
    FilterCoeffs,
    PolyLoop,
    SampledFunction,
    SpinFactorization,
    StorageError,
    analyze,
    filters_to_loop,
    load,
    preset_bank,
    save,
    storage,
)

SETTINGS = settings(derandomize=True, deadline=None)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# Entries small enough to keep a unit matrix unitary within 1e-12.
tiny = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e-15, 1e-15))


def complex_arrays(shape, parts=finite):
    n = int(np.prod(shape))
    return st.lists(parts, min_size=2 * n, max_size=2 * n).map(
        lambda xs: np.array(xs, dtype=np.float64).view(np.complex128).reshape(shape)
    )


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


@st.composite
def banks(draw):
    N, g = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    filters = []
    for _ in range(N):
        length = draw(st.integers(1, N * g))
        taps = draw(complex_arrays((length,)))
        offset = draw(st.integers(0, N * g - length))
        filters.append(FilterCoeffs(taps, offset=offset, unpruned=bool(taps[0] == 0 or taps[-1] == 0)))
    return FilterBank(N, g, tuple(filters), lowpass_normalized=draw(st.booleans()), name=draw(st.text(max_size=5)))


@st.composite
def loops(draw):
    N, D = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    coeffs = draw(complex_arrays((D + 1, N, N)))
    if not np.abs(coeffs[-1]).max() > 0:
        coeffs[-1, 0, 0] = 1.0
    return PolyLoop(N, coeffs)


def _near_unit(draw, rows, N):
    """Rows of the identity (cyclically shifted), zeros replaced by tiny entries."""
    out = draw(complex_arrays((rows, N), tiny))
    shift = draw(st.integers(0, N - 1))
    for i in range(rows):
        out[i, (i + shift) % N] = draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    return out


@st.composite
def spins(draw):
    N = draw(st.integers(2, 4))
    V = _near_unit(draw, N, N)
    factors = tuple(_near_unit(draw, draw(st.integers(1, N - 1)), N) for _ in range(draw(st.integers(0, 3))))
    return SpinFactorization(N, V, factors)


@st.composite
def trees(draw):
    N, levels, base = draw(st.integers(2, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    L = base * N**levels
    details = tuple(
        tuple(draw(complex_arrays((L // N**n,))) for _ in range(N - 1)) for n in range(1, levels + 1)
    )
    return CoeffTree(N, levels, draw(complex_arrays((base,))), details)


def _arrays(kind, value) -> list:
    if kind == "bank":
        return [f.taps for f in value.filters]
    if kind == "loop":
        return [value.coeffs]
    if kind == "spins":
        return [value.V, *value.factors]
    return [value.approx, *(c for level in value.details for c in level)]


def _assert_round_trip(tmp_path_factory, kind, value):
    path = tmp_path_factory.mktemp(kind) / f"{kind}.json"
    save(value, str(path))
    back = load(str(path), kind)
    before, after = _arrays(kind, value), _arrays(kind, back)
    assert len(before) == len(after)
    for a, b in zip(before, after):
        assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
    again = path.with_name("again.json")
    save(back, str(again))
    assert again.read_bytes() == path.read_bytes()


@SETTINGS
@given(banks())
def test_bank_round_trip_keeps_every_bit(tmp_path_factory, bank):
    _assert_round_trip(tmp_path_factory, "bank", bank)


@SETTINGS
@given(loops())
def test_loop_round_trip_keeps_every_bit(tmp_path_factory, loop):
    _assert_round_trip(tmp_path_factory, "loop", loop)


@SETTINGS
@given(spins())
def test_spins_round_trip_keeps_every_bit(tmp_path_factory, sf):
    _assert_round_trip(tmp_path_factory, "spins", sf)


@SETTINGS
@given(trees())
def test_tree_round_trip_keeps_every_bit(tmp_path_factory, tree):
    _assert_round_trip(tmp_path_factory, "tree", tree)


vectors = st.integers(1, 40).flatmap(lambda n: complex_arrays((n,)))


@st.composite
def sampled_functions(draw):
    values = draw(vectors)
    return SampledFunction(values, draw(st.integers(2, 4)), draw(st.integers(0, 3)), draw(st.integers(-20, 20)))


def _assert_csv_round_trip(tmp_path_factory, kind, value):
    path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
    save(value, str(path))
    back = load(str(path), kind)
    if kind == "samples":
        xs, back = back
        assert np.array_equal(xs.view(np.uint64), value.grid().view(np.uint64))
        value, again_value = value.values, SampledFunction(back, value.scale, value.depth, value.start)
    else:
        again_value = back
    assert back.shape == value.shape and np.array_equal(bits(back), bits(value))
    again = path.with_name("again.csv")
    save(again_value, str(again))
    assert again.read_bytes() == path.read_bytes()


@SETTINGS
@given(vectors)
def test_signal_round_trip_keeps_every_bit(tmp_path_factory, x):
    _assert_csv_round_trip(tmp_path_factory, "signal", x)


@SETTINGS
@given(sampled_functions())
def test_samples_round_trip_keeps_every_bit(tmp_path_factory, f):
    _assert_csv_round_trip(tmp_path_factory, "samples", f)


def test_signal_round_trip_across_parse_blocks(tmp_path_factory):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    edges = np.array(EDGES)
    x.real[4090:4090 + edges.size] = edges
    x.imag[8190:8190 + edges.size] = edges[::-1]
    _assert_csv_round_trip(tmp_path_factory, "signal", x)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _valid_data():
    rng = np.random.default_rng(9)
    return {
        "bank": storage.bank_to_dict(preset_bank("db4")),
        "loop": storage.loop_to_dict(filters_to_loop(preset_bank("haar"))),
        "spins": storage.spins_to_dict(random_spins(rng, 3, 2)),
        "tree": storage.tree_to_dict(analyze(rng.standard_normal(8), preset_bank("haar"), 2)),
    }


VALID = _valid_data()


def _fields(node, at=()):
    """Every position in a JSON document: object members and array elements."""
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _fields(child, (*at, key))


CASES = [(kind, field) for kind, data in VALID.items() for field in _fields(data) if field]


@SETTINGS
@given(st.sampled_from(CASES), json_values)
def test_any_json_value_at_any_field_loads_or_raises_storage_error(tmp_path_factory, case, value):
    kind, field = case
    data = json.loads(json.dumps(VALID[kind]))
    holder = data
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path = tmp_path_factory.mktemp(kind) / f"{kind}.json"
    path.write_text(json.dumps(data))
    try:
        load(str(path), kind)
    except StorageError:
        pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_documents_load(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(VALID[kind]))
    load(str(path), kind)
