from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadrica import (
    CpModule,
    MapTable,
    build_example,
    dumps,
    free_cp_pair,
    from_doc,
    hom_module,
    loads,
    ree_module,
    regular_module,
    to_doc,
    verify_cp_module,
)
from quadrica.errors import NotAGroup, NotARing, ParseError

from conftest import RING_SPECS

GOLDEN = Path(__file__).parent / "data" / "rnil2_rank1.cpmod"


def canonical(doc) -> str:
    """The definition of the canonical form."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_golden_document_is_stable():
    text = GOLDEN.read_text()
    pair = loads(text)
    assert isinstance(pair, CpModule)
    assert verify_cp_module(pair).passed
    assert dumps(to_doc(pair)) + "\n" == text
    # and the canonical form is what the builder produces today
    assert dumps(to_doc(free_cp_pair(build_example("rnil", 2)))) + "\n" == text


@pytest.mark.parametrize("kind,n", [("sym", 2), ("tensor", 3), ("gamma", 4)])
def test_square_ring_round_trip(kind, n):
    sr = build_example(kind, n)
    back = from_doc(to_doc(sr))
    assert np.array_equal(back.re.mul, sr.re.mul)
    assert np.array_equal(back.act, sr.act)
    assert np.array_equal(back.h, sr.h)
    assert dumps(to_doc(back)) == dumps(to_doc(sr))


def test_module_and_map_round_trip():
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    pair = free_cp_pair(sr)
    assert from_doc(to_doc(reg)).tables_equal(reg)
    back = from_doc(to_doc(pair))
    assert back.tables_equal(pair) and back.aset == pair.aset
    f = MapTable(pair, pair, np.array([0, 1, 0, 1]))
    g = from_doc(to_doc(f))
    assert isinstance(g, MapTable)
    assert np.array_equal(g.table, f.table)
    assert g.dom.tables_equal(f.dom) and g.cod.tables_equal(f.cod)


def test_dumps_is_deterministic():
    sr = build_example("tensor", 2)
    assert dumps(to_doc(sr)) == dumps(to_doc(build_example("tensor", 2)))


def test_loads_rejects_malformed_text():
    with pytest.raises(ParseError):
        loads("this is not a document {")
    with pytest.raises(ParseError):
        loads(json.dumps({"kind": "heptagon"}))
    with pytest.raises(ParseError):
        loads(json.dumps({"no": "kind"}))
    with pytest.raises(ParseError):
        loads(json.dumps({"kind": "bhp_module"}))  # missing fields


def test_ragged_tables_are_a_parse_failure():
    doc = json.loads(GOLDEN.read_text())
    doc["group"]["add"] = [[0, 1], [1]]
    with pytest.raises(ParseError) as info:
        from_doc(doc)
    assert info.value.__cause__ is None


def test_axiom_failures_keep_their_cause():
    """A well-formed table that is not a group (or ring) is a verification
    failure, not a parse failure; the original error rides along so callers
    can tell the two apart."""
    doc = json.loads(GOLDEN.read_text())
    doc["group"]["add"] = [[0, 1], [1, 1]]
    with pytest.raises(ParseError) as info:
        from_doc(doc)
    assert isinstance(info.value.__cause__, NotAGroup)

    ring_doc = json.loads(GOLDEN.read_text())["square_ring"]
    ring_doc["re"]["mul"] = [[1, 1], [1, 1]]
    with pytest.raises(ParseError) as info:
        from_doc(ring_doc)
    assert isinstance(info.value.__cause__, NotARing)


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "9" * 5000],
                         ids=["nested-too-deeply", "integer-too-long"])
def test_json_that_python_cannot_decode_is_a_parse_error(text):
    with pytest.raises(ParseError):
        loads(text)


def test_declared_unit_must_match():
    doc = json.loads(GOLDEN.read_text())["square_ring"]
    doc["re"]["one"] = 0
    with pytest.raises(ParseError):
        from_doc(doc)


def test_map_endpoints_must_be_modules():
    sr = build_example("sym", 2)
    doc = {"kind": "map", "dom": to_doc(sr), "cod": to_doc(sr), "table": [0]}
    with pytest.raises(ParseError):
        from_doc(doc)


def test_to_doc_refuses_unknown_objects():
    with pytest.raises(ParseError):
        to_doc(object())


@pytest.mark.parametrize("spec", RING_SPECS, ids=lambda s: f"{s[0]}{s[1]}-{s[2]}")
def test_the_writer_gives_the_canonical_bytes_for_every_example(spec):
    sr = build_example(*spec[:2], epsilon=spec[2])
    for obj in (sr, free_cp_pair(sr), regular_module(sr), ree_module(sr)):
        assert dumps(obj) == dumps(to_doc(obj)) == canonical(to_doc(obj))


@pytest.mark.parametrize("kind", ["classical", "rnil", "lambda", "tensor", "sym", "gamma"])
def test_the_writer_gives_the_canonical_bytes_for_hom_modules_and_maps(kind):
    pair = free_cp_pair(build_example(kind, 2))
    hom = hom_module(pair, pair)
    assert dumps(hom) == canonical(to_doc(hom))
    f = hom.maps[-1]
    assert dumps(f) == canonical(to_doc(f))


def test_the_writer_gives_the_canonical_bytes_for_a_reloaded_hom_document():
    doc = json.loads((Path(__file__).parent / "data" / "gamma4_hom.cpmod").read_text())
    hom = from_doc(doc)
    assert dumps(hom) == canonical(to_doc(hom)) == canonical(doc)


@st.composite
def int_arrays(draw):
    """Nested lists of integers, rank 1–4, axes of length 0–3."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    cells = draw(st.lists(st.integers(-(2**70), 2**70), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))

    def nest(axis, start):
        if axis == len(shape):
            return cells[start]
        step = int(np.prod(shape[axis + 1:]))
        return [nest(axis + 1, start + i * step) for i in range(shape[axis])]

    return nest(0, 0)


@given(int_arrays(), st.integers(0, 2))
def test_the_writer_gives_the_canonical_bytes_for_integer_arrays(array, depth):
    doc = array
    for _ in range(depth):
        doc = {"k": doc, "j": [doc, 1, [True]]}
    assert dumps({"a": doc}) == canonical({"a": doc})


def test_the_writer_lays_out_other_values_like_the_stdlib():
    doc = {"b": [[1, 2], [3]], "a": [[1, True], [], [[]], 1.5, None, "é\n", {}],
           "c": [[[1], [2]], [[3], [4]]], "d": [{"z": [0], "y": 2**70}]}
    assert dumps(doc) == canonical(doc)


@pytest.mark.parametrize("entry,reason", [
    ([[0, 1], [1]], "an entry is not an integer"),
    ([[0, 1], [1, True]], "an entry is not an integer"),
    ([[0, 1], [1, 1.5]], "an entry is not an integer"),
    ([[0, 1], [1, "1"]], "an entry is not an integer"),
    ([[0, 1], [1, [1]]], "an entry is not an integer"),
    ("01", "an entry is not an integer"),
    ([[0, 1], [1, 2**63]], "Python int too large to convert to C long"),
])
def test_the_reader_refuses_what_is_not_an_integer_array(entry, reason):
    doc = json.loads(GOLDEN.read_text())
    doc["group"]["add"] = entry
    with pytest.raises(ParseError) as info:
        from_doc(doc)
    assert str(info.value) == f"group.add: not a rectangular integer array ({reason})"
