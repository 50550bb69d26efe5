"""Kind-tagged JSON documents for rings, modules, pairs, and maps.

Documents are self-contained (a module document embeds its square ring, a
map document embeds both modules) and serialize to a canonical byte form:
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.  Encoding an object
and decoding the result round-trips byte-identically.

The canonical form keeps that definition; ``dumps`` produces the same bytes
by its own writer.  The stdlib encoder with ``indent`` runs one Python step
per cell.  The writer lays out a rectangular integer array of any rank as
one ``str.join``: the cells' strings interleaved with separators that depend
only on how many axes close between two cells, placed by stride.  Every
other value (a dict, a list that is not such an array, a scalar) is laid out
as the stdlib lays it out.  Reading finds the same arrays by the same scan,
which checks the type of every cell with one C-level pass,
``set(map(type, cells))``.
"""

from __future__ import annotations

import json
from itertools import chain
from math import prod

import numpy as np

from .errors import ParseError, QuadricaError
from .groups import FiniteGroup, build_group
from .modules import BhpModule, CpModule
from .quadratic import MapTable
from .rings import NearRing, build_near_ring
from .squarering import SquareRing

__all__ = ["to_doc", "from_doc", "dumps", "loads"]

KINDS = ("square_ring", "bhp_module", "cp_module", "map")


def _group_doc(g: FiniteGroup) -> dict:
    return {"add": g.add.tolist()}


def _right_distributive(r: NearRing) -> bool:
    n = r.order
    a = np.arange(n).reshape(n, 1, 1)
    b = np.arange(n).reshape(1, n, 1)
    c = np.arange(n).reshape(1, 1, n)
    return bool((r.mul[r.group.add[a, b], c] == r.group.add[r.mul[a, c], r.mul[b, c]]).all())


def _near_ring_doc(r: NearRing) -> dict:
    return {
        "add": r.group.add.tolist(),
        "mul": r.mul.tolist(),
        "one": int(r.one),
        "right_distributive": _right_distributive(r),
    }


def to_doc(obj) -> dict:
    """Encode a square ring, module, pair, or map as a plain JSON document."""
    if isinstance(obj, SquareRing):
        return {
            "kind": "square_ring",
            "re": _near_ring_doc(obj.re),
            "ree": _group_doc(obj.ree),
            "act": obj.act.tolist(),
            "h": obj.h.tolist(),
            "p": obj.p.tolist(),
            "t": obj.t.tolist(),
        }
    if isinstance(obj, CpModule):
        return {
            "kind": "cp_module",
            "square_ring": to_doc(obj.sr),
            "group": _group_doc(obj.group),
            "scal": obj.scal.tolist(),
            "bracket": obj.bracket.tolist(),
            "aset": list(obj.aset),
        }
    if isinstance(obj, BhpModule):
        return {
            "kind": "bhp_module",
            "square_ring": to_doc(obj.sr),
            "group": _group_doc(obj.group),
            "scal": obj.scal.tolist(),
            "bracket": obj.bracket.tolist(),
        }
    if isinstance(obj, MapTable):
        return {
            "kind": "map",
            "dom": to_doc(obj.dom),
            "cod": to_doc(obj.cod),
            "table": obj.table.tolist(),
        }
    raise ParseError(f"cannot encode an object of type {type(obj).__name__}")


def _need(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not integers here."""
    return type(value) is int


def _rectangle(rows) -> tuple[list[int], list] | None:
    """The shape of ``rows`` and its cells in row-major order, when ``rows``
    is a rectangular array of JSON integers (``true`` is not one); None
    otherwise.  An empty axis ends the shape, and then there are no cells."""
    shape, cells = [len(rows)], rows
    while cells:
        kinds = set(map(type, cells))
        if kinds == {int}:
            return shape, cells
        widths = set(map(len, cells)) if kinds <= {list, tuple} else ()
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        cells = list(chain.from_iterable(cells))
    return shape, cells


def _int_array(value, what: str) -> np.ndarray:
    try:
        if isinstance(value, (list, tuple)):
            found = _rectangle(value)
        else:
            found = ([], [value]) if _is_int(value) else None
        if found is None:
            raise ValueError("an entry is not an integer")
        shape, cells = found
        return np.fromiter(cells, dtype=np.int64, count=len(cells)).reshape(shape)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{what}: not a rectangular integer array ({e})") from None


def _group_from(doc: dict, what: str) -> FiniteGroup:
    add = _int_array(_need(doc, "add"), f"{what}.add")
    try:
        return build_group(add)
    except QuadricaError as e:
        # keep the cause: a well-formed table that fails the group axioms is
        # a verification failure, not a parse failure
        raise ParseError(f"{what}: {e}") from e


def _near_ring_from(doc: dict, what: str) -> NearRing:
    add = _int_array(_need(doc, "add"), f"{what}.add")
    mul = _int_array(_need(doc, "mul"), f"{what}.mul")
    one = _need(doc, "one")
    if not _is_int(one):
        raise ParseError(f"{what}.one: expected an integer")
    rd = bool(doc.get("right_distributive", True))
    try:
        ring = build_near_ring(add, mul, right_distributive=rd)
    except QuadricaError as e:
        raise ParseError(f"{what}: {e}") from e
    if int(ring.one) != one:
        raise ParseError(f"{what}.one: {one} is not the unit of the given tables")
    return ring


def from_doc(doc: dict):
    """Decode a kind-tagged document; structural problems raise ParseError,
    axiom-level verification failures surface from the constructors."""
    kind = _need(doc, "kind")
    if kind == "square_ring":
        re = _near_ring_from(_need(doc, "re"), "re")
        ree = _group_from(_need(doc, "ree"), "ree")
        try:
            return SquareRing(
                re,
                ree,
                _int_array(_need(doc, "act"), "act"),
                _int_array(_need(doc, "h"), "h"),
                _int_array(_need(doc, "p"), "p"),
                _int_array(_need(doc, "t"), "t"),
            )
        except QuadricaError as e:
            raise ParseError(str(e)) from None
    if kind in ("bhp_module", "cp_module"):
        sr = from_doc(_need(doc, "square_ring"))
        if not isinstance(sr, SquareRing):
            raise ParseError("square_ring must be a square ring document")
        group = _group_from(_need(doc, "group"), "group")
        scal = _int_array(_need(doc, "scal"), "scal")
        bracket = _int_array(_need(doc, "bracket"), "bracket")
        try:
            if kind == "cp_module":
                aset = _need(doc, "aset")
                if not isinstance(aset, list) or not all(map(_is_int, aset)):
                    raise ParseError("aset: expected a list of integers")
                return CpModule(sr, group, scal, bracket, aset)
            return BhpModule(sr, group, scal, bracket)
        except ParseError:
            raise
        except QuadricaError as e:
            raise ParseError(str(e)) from None
    if kind == "map":
        dom = from_doc(_need(doc, "dom"))
        cod = from_doc(_need(doc, "cod"))
        if not isinstance(dom, BhpModule) or not isinstance(cod, BhpModule):
            raise ParseError("map endpoints must be module documents")
        try:
            return MapTable(dom, cod, _int_array(_need(doc, "table"), "table"))
        except QuadricaError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}")


def _array_text(shape: list[int], cells: list, depth: int) -> str:
    """The indented text of a rectangular array whose opening bracket stands
    on a line indented ``depth`` levels.  Between two cells, k axes close:
    k closing brackets, a comma, k opening brackets, each on its own line.
    An array with an empty axis is the array of its ``[]`` entries."""
    if 0 in shape:
        shape = shape[: shape.index(0)]
        leaves = ["[]"] * prod(shape)
    else:
        names = {v: str(v) for v in set(cells)}
        leaves = list(map(names.__getitem__, cells))
    if not shape:
        return "[]"
    rank, count = len(shape), len(leaves)

    def line(level: int) -> str:
        return "\n" + "  " * (depth + level)

    parts = [""] * (2 * count + 1)
    parts[1::2] = leaves
    parts[2:-1:2] = ["," + line(rank)] * (count - 1)
    stride = 1
    for k in range(1, rank):
        stride *= shape[rank - k]
        closes = "".join(line(rank - j) + "]" for j in range(1, k + 1))
        opens = "".join("[" + line(rank - k + j) for j in range(1, k + 1))
        parts[2 * stride : -1 : 2 * stride] = [closes + "," + line(rank - k) + opens] * (
            (count - 1) // stride)
    parts[0] = "".join("[" + line(j) for j in range(1, rank + 1))
    parts[-1] = "".join(line(j) + "]" for j in range(rank - 1, -1, -1))
    return "".join(parts)


def _write(value, depth: int, out: list) -> None:
    """Append to ``out`` the text ``json.dumps(value, sort_keys=True,
    indent=2)`` gives ``value`` when it starts on a line indented ``depth``
    levels."""
    if isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        found = _rectangle(value)
        if found is not None:
            out.append(_array_text(*found, depth))
        else:
            sep = "[\n" + "  " * (depth + 1)
            for item in value:
                out.append(sep)
                _write(item, depth + 1, out)
                sep = ",\n" + "  " * (depth + 1)
            out.append("\n" + "  " * depth + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{\n" + "  " * (depth + 1)
        for key, item in sorted(value.items()):
            # a key that is not a string is written as its JSON text, quoted
            out.append(sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write(item, depth + 1, out)
            sep = ",\n" + "  " * (depth + 1)
        out.append("\n" + "  " * depth + "}")
    else:
        out.append(json.dumps(value))


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline;
    the bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``."""
    out: list[str] = []
    _write(to_doc(obj) if not isinstance(obj, dict) else obj, 0, out)
    out.append("\n")
    return "".join(out)


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    return from_doc(doc)
