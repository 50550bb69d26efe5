"""Refusals: every law that must hold becomes an exception through
``Verdict.require``, as "{what} fails {law} at {witness}: {detail}".

One parametrized test pins the exception type and the exact message of
each reachable refusal; a scan of the sources keeps hand-written
refusals from coming back.
"""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quadrica
import quadrica.quadratic as quadratic
from quadrica import (
    Failure,
    MapTable,
    SquareRing,
    Verdict,
    build_example,
    build_group,
    build_near_ring,
    compose_quadratic,
    cyclic,
    dihedral,
    direct_product,
    factorization_check,
    free_cp_pair,
    hom_module,
    is_cp_quadratic,
    module_from_algebra,
    quotient_bhp,
    regular_module,
    three_defects_check,
    zmod,
)
from quadrica.errors import (
    ConsistencyError,
    NotAGroup,
    NotAnAlgebra,
    NotARing,
    NotNormal,
    PreconditionUnmet,
)
from quadrica.examples import AlgebraData
from quadrica.rings import CommutativeRing

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


def upper_triangular_matrices():
    """The 2×2 upper triangular matrices over Z/2, (a, b, c) at 4a + 2b + c:
    a ring with commutative addition, but (0,0,1)·(0,1,0) = 0 while
    (0,1,0)·(0,0,1) = (0,1,0)."""
    group = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    cells = [(i // 4, i // 2 % 2, i % 2) for i in range(8)]
    mul = [[4 * a * a2 + 2 * ((a * b2 + b * c2) % 2) + c * c2 for a2, b2, c2 in cells]
           for a, b, c in cells]
    return CommutativeRing(group, mul, 5)


def composite_of_a_spoiled_certificate():
    """The squaring map of the ``tensor 2`` free pair, with f_(1) spoiled at
    3, composed with the identity: (id∘f)_(1)(3) no longer equals
    id(f_(1)(3)) + id_(1)(f(3))."""
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    f = is_cp_quadratic(square_map(sr, pair))
    scalar = f.defects.scalar.copy()
    scalar[1, 3] = (scalar[1, 3] + 1) % pair.nm
    f.defects = replace(f.defects, scalar=scalar)
    compose_quadratic(is_cp_quadratic(MapTable(pair, pair, np.arange(pair.nm))), f)


def forged_hom_carrier():
    """The Hom assembly handed the zero map and the third quadratic map of
    the ``sym 2`` free pair as its whole carrier."""
    pair = free_cp_pair(build_example("sym", 2))
    maps = quadratic.enumerate_cp_quadratic(pair, pair)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadratic, "enumerate_cp_quadratic", lambda *a, **k: [maps[0], maps[2]])
        hom_module(pair, pair)


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
        (lambda: build_group([[0, 1], [1, 1]]), NotAGroup,
         "group table fails inverse at (1,): lhs=1 rhs=0"),
        (lambda: dihedral(4).quotient((0, 1)), NotNormal,
         "subgroup (0, 1) fails normal at (2, 1): lhs=0 rhs=1"),
        (lambda: quotient_bhp(regular_module(build_example("tensor", 3)), (0, 3, 6)), NotNormal,
         "quotient by (0, 3, 6) fails scalar-stable at (3, 1): lhs=0 rhs=1"),
        (upper_triangular_matrices, NotARing,
         "commutative ring fails mul-commutative at (1, 2): lhs=0 rhs=2"),
        (composite_of_a_spoiled_certificate, ConsistencyError,
         "composite g∘f fails scalar-defect-closed-form at (1, 3): lhs=1 rhs=2"),
        (forged_hom_carrier, ConsistencyError,
         "carrier of quadratic maps fails pointwise bracket at (1, 1, 1): lhs=0 rhs=1"),
    ],
    ids=["near-ring", "algebra", "three-defects", "factorization", "square-ring",
         "no-inverse", "not-normal", "not-scalar-stable", "not-commutative", "composite",
         "forged-hom-carrier"],
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


def test_a_refusal_sweeps_no_law_after_the_first_that_fails(swept):
    """A law list that must hold is swept up to its first failing law and
    no further: the refused quotient of the ``sym 4`` regular module by
    (0, 4, 8, 12) sweeps normality (16 × 4 cells) and ``scalar-stable``
    (4 × 16), not ``bracket-stable``, ``scal-well-defined`` or
    ``bracket-well-defined`` (1,536 cells more)."""
    mod = regular_module(build_example("sym", 4))
    assert (mod.nm, mod.sr.re.order, mod.sr.ree.order) == (16, 16, 4)
    with swept() as tally, pytest.raises(NotNormal) as info:
        quotient_bhp(mod, (0, 4, 8, 12))
    assert str(info.value) == "quotient by (0, 4, 8, 12) fails scalar-stable at (4, 1): lhs=0 rhs=1"
    assert (tally.sweeps, tally.cells) == (2, 16 * 4 + 4 * 16)


def _decide_lines() -> range:
    tree = ast.parse((SOURCES / "quadratic.py").read_text(encoding="utf-8"))
    (decide,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_decide"]
    return range(decide.lineno, decide.end_lineno + 1)


def test_one_refusal_path():
    """Outside ``verdict.py`` and the pinned messages of
    ``quadratic._decide``, no source line reads the first failure of a
    verdict or of a sweep to build an exception: ``Verdict.require`` does.
    Nor does any module outside ``verdict.py`` search for a witness of its
    own, with ``np.argwhere`` or a direct ``law_failures`` sweep: a table
    identity is a law, decided by ``run_laws``."""
    first_failure = re.compile(r"\b(failures|bad)\[0\]")
    own_search = re.compile(r"\bnp\.argwhere\(|\blaw_failures\(")
    allowed = {"quadratic.py": _decide_lines()}
    offenders = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "verdict.py":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if own_search.search(line) or (first_failure.search(line)
                                           and number not in allowed.get(path.name, ())):
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert offenders == []
    assert len(_decide_lines()) > 1  # the scan still finds _decide


def test_constant_law_sides_are_constants():
    """A law side that is the same at every cell is written as the
    constant (``0``, ``1``): the engine broadcasts it against the other
    side, which spans the grid, so a grid-shaped array of zeros or ones
    would only be allocated to be compared."""
    constant_array = re.compile(r"\b(zeros|ones)_like\(")
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(SOURCES.glob("*.py"))
                 for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if constant_array.search(line)]
    assert offenders == []


def _hand_written_additivity(tree: ast.AST) -> list[ast.Lambda]:
    """The lambdas of ``tree`` whose body is the additivity law
    (X[…, Y[a, b], …], Z[X[…], X[…]]), a and b two consecutive parameters."""
    def table(node):  # X of X[…], or None
        return ast.dump(node.value) if isinstance(node, ast.Subscript) else None

    def index(node) -> list:
        return node.elts if isinstance(node, ast.Tuple) else [node]

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Lambda) and isinstance(node.body, ast.Tuple)
                and len(node.body.elts) == 2):
            continue
        lhs, rhs = node.body.elts
        names = [arg.arg for arg in node.args.args]
        pairs = set(zip(names, names[1:]))
        sums = [tuple(getattr(e, "id", None) for e in index(i.slice))
                for i in index(lhs.slice) if isinstance(i, ast.Subscript)] if table(lhs) else []
        terms = index(rhs.slice) if table(rhs) else []
        if (pairs.intersection(sums) and len(terms) == 2
                and all(table(term) == table(lhs) for term in terms)):
            found.append(node)
    return found


def test_additivity_laws_come_from_one_factory():
    """Every "φ is additive in one argument" law is built by
    ``verdict._additive``: no lambda of the package writes its body by
    hand.  And the loop oracle ``naive.py`` imports nothing of the
    package, so it stays independent of the engine it checks."""
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SOURCES.glob("*.py"))
                 for node in _hand_written_additivity(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []
    law = "lambda q, m, m2, n: (B[q, madd[m, m2], n], nadd[B[q, m, n], B[q, m2, n]])"
    assert len(_hand_written_additivity(ast.parse(law))) == 1  # the scan still sees one
    naive = list(ast.walk(ast.parse((SOURCES / "naive.py").read_text(encoding="utf-8"))))
    imported = ["." * node.level + (node.module or "") for node in naive
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in naive if isinstance(node, ast.Import)
                 for alias in node.names]
    assert imported and not [name for name in imported
                             if name.startswith(".") or name.split(".")[0] == "quadrica"]
