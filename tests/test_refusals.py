"""Refusals: every law that must hold becomes an exception through
``Verdict.require``, as "{what} fails {law} at {witness}: {detail}".

One parametrized test pins the exception type and the exact message of
each reachable refusal; a scan of the sources keeps hand-written
refusals from coming back.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import quadrica
from quadrica import (
    Failure,
    MapTable,
    SquareRing,
    Verdict,
    build_example,
    build_near_ring,
    factorization_check,
    free_cp_pair,
    module_from_algebra,
    regular_module,
    three_defects_check,
    zmod,
)
from quadrica.errors import NotAnAlgebra, NotARing, PreconditionUnmet
from quadrica.examples import AlgebraData

SOURCES = Path(quadrica.__file__).parent


def square_map(sr, module) -> MapTable:
    return MapTable(module, module, sr.re.mul[np.arange(module.nm), np.arange(module.nm)])


def non_associative_near_ring():
    """Z/4 with 2·3 = 0 and 3·3 = 1: (2·3)·3 = 0 but 2·(3·3) = 2."""
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 0], [0, 3, 0, 1]]
    return build_near_ring(zmod(4).group.add, mul)


def non_bilinear_algebra():
    """Z/4 with 1∗1 = 2 and every other product 0: (1+2)∗1 = 0, but
    1∗1 + 2∗1 = 2."""
    product = ((0, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    return module_from_algebra("assoc", AlgebraData(n=4, factors=(4,), product=product))


def three_defects_of_the_square():
    sr = build_example("tensor", 3)
    return three_defects_check(square_map(sr, regular_module(sr)))


def factorization_of_the_square():
    sr = build_example("tensor", 3)
    return factorization_check(square_map(sr, free_cp_pair(sr)))


def module_over_a_failing_square_ring():
    """``sym 2`` with T = 0: T(T(1)) = 0, not 1."""
    sr = build_example("sym", 2)
    bad = SquareRing(sr.re, sr.ree, sr.act, sr.h, sr.p, np.zeros_like(sr.t))
    return regular_module(bad)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (non_associative_near_ring, NotARing,
         "near-ring fails mul-associative at (2, 3, 3): lhs=0 rhs=2"),
        (non_bilinear_algebra, NotAnAlgebra,
         "assoc data fails additive in the first slot at (1, 2, 1): lhs=0 rhs=2"),
        (three_defects_of_the_square, PreconditionUnmet,
         "map for the three-defects identity fails BHP1 at (3, 3): lhs=0 rhs=1"),
        (factorization_of_the_square, PreconditionUnmet,
         "map for the factorization check fails CP1 at (3, 3): lhs=0 rhs=1"),
        (module_over_a_failing_square_ring, PreconditionUnmet,
         "square ring fails T-involution at (1,): lhs=0 rhs=1"),
    ],
    ids=["near-ring", "algebra", "three-defects", "factorization", "square-ring"],
)
def test_refusals_name_the_law_the_witness_and_the_detail(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_require_returns_a_passing_verdict_and_raises_on_the_first_failure():
    ok = Verdict.from_failures([], ["L"])
    assert ok.require(NotARing, "x") is ok
    bad = Verdict.from_failures([Failure("L", (1, 2), "lhs=0 rhs=1"),
                                 Failure("K", (0,), "lhs=1 rhs=0")], ["L", "K"])
    with pytest.raises(NotARing, match=r"^x fails L at \(1, 2\): lhs=0 rhs=1$"):
        bad.require(NotARing, "x")


def _decide_lines() -> range:
    tree = ast.parse((SOURCES / "quadratic.py").read_text(encoding="utf-8"))
    (decide,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_decide"]
    return range(decide.lineno, decide.end_lineno + 1)


def test_one_refusal_path():
    """Outside ``verdict.py`` and the pinned messages of
    ``quadratic._decide``, no source line reads the first failure of a
    verdict or of a sweep to build an exception: ``Verdict.require`` does."""
    first_failure = re.compile(r"\b(failures|bad)\[0\]")
    allowed = {"quadratic.py": _decide_lines()}
    offenders = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "verdict.py":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if first_failure.search(line) and number not in allowed.get(path.name, ()):
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert offenders == []
    assert len(_decide_lines()) > 1  # the scan still finds _decide
