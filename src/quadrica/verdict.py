"""Verdicts and the exhaustive table-identity sweep engine.

Every axiom/relation check in the library is phrased as "evaluate two integer
arrays over a full index grid and compare".  The engine sweeps a law over a
leading candidate axis and the grid, in blocks of one cell budget cut along
any axis (``_blocks``), so no sweep, of a passing or of a failing object,
materialises much more than one block of cells at once.
``passing_candidates`` reads one boolean per candidate, for batch deciders;
``law_failures`` is the sweep of one candidate, with lexicographically-first
witness extraction.  ``Sweeps`` shares the sweeps of one decision between
routes: a clause (a law body over its dims) that several routes hold is
swept once, for every candidate that needs it.

A law is a tuple ``(label, dims, law)`` or ``(label, dims, law, reduced)``.
``dims`` is a tuple of axes.  An axis is a size n, running over
0 .. n-1, or an ascending tuple of indices (a subgroup A, [M,M]_R, a
generating set), running over those values.  The law body sees the values,
and a witness names them.  ``reduced`` is None, or other dims for the same
body, with some of its additive arguments running over a generating set.
Whoever writes a reduced form proves that, once every law without a
reduced form and every reduced form hold, every law holds; ``run_laws``
and ``passing_candidates`` apply that one rule, and their results are
those of the full sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import product
from math import prod
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Failure",
    "Verdict",
    "WITNESS_CAP",
    "open_grid",
    "law_failures",
    "run_laws",
    "passing_candidates",
    "Sweeps",
]

Law = Callable[..., tuple[np.ndarray, np.ndarray]]

# The most witnesses ``law_failures(..., all_witnesses=True)`` lists for one
# law; the last one listed counts the failing cells left out.
WITNESS_CAP = 1024


@dataclass(frozen=True)
class Failure:
    """One violated law: the label, the lexicographically-first witness tuple
    (the values of the law's arguments, in its own quantifier order: an
    element of the index set on such an axis), and the two values.
    ``omitted`` counts the failing cells of the same sweep after this one
    that are not listed (see ``WITNESS_CAP``)."""

    law: str
    witness: tuple[int, ...]
    detail: str = ""
    omitted: int = 0

    def __str__(self) -> str:
        more = f" ({self.omitted} more failing cells not listed)" if self.omitted else ""
        return f"{self.law} at {self.witness}: {self.detail}{more}"


@dataclass(frozen=True)
class Verdict:
    passed: bool
    failures: tuple[Failure, ...] = ()
    checked: tuple[str, ...] = field(default_factory=tuple)

    @staticmethod
    def from_failures(failures: Sequence[Failure], checked: Sequence[str]) -> "Verdict":
        """The verdict of ``failures``; ``checked`` names each law once, in
        first-seen order (a law of several clauses repeats its label)."""
        return Verdict(not failures, tuple(failures), tuple(dict.fromkeys(checked)))

    def merge(self, other: "Verdict") -> "Verdict":
        """Both verdicts as one.  A failure of ``other`` that this verdict
        lists already (a map over one module, or over two modules failing
        the same law) is dropped; each verdict's own list is kept whole."""
        seen = set(self.failures)
        return Verdict.from_failures(self.failures + tuple(f for f in other.failures
                                                           if f not in seen),
                                     self.checked + other.checked)

    def require(self, error: type[Exception], what: str) -> "Verdict":
        """This verdict, if it passed; otherwise ``error`` raised on its
        first failure, as "{what} fails {law} at {witness}: {detail}".
        The one place where a law that must hold becomes a refusal."""
        if not self.passed:
            raise error(f"{what} fails {self.failures[0]}")
        return self

    def failed_laws(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(f.law for f in self.failures))

    def __bool__(self) -> bool:
        return self.passed


def _additive(phi, slot: int, add, out_add) -> Law:
    """The law body "φ is additive in argument ``slot``": at arguments
    (…, a, b, …), with b right after a in that slot, the two sides
    φ(…, a+b, …) and φ(…, a, …) + φ(…, b, …), where ``add`` adds the
    arguments and ``out_add`` the values.  Every "additive in one argument"
    law of the package is built here, so its body is written once."""
    def law(*args):
        head, (a, b), tail = args[:slot], args[slot:slot + 2], args[slot + 2:]
        return (phi[(*head, add[a, b], *tail)],
                out_add[phi[(*head, a, *tail)], phi[(*head, b, *tail)]])
    return law


def open_grid(dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Index arrays shaped for mutual broadcasting over the given dims."""
    k = len(dims)
    return tuple(
        np.arange(d).reshape((1,) * i + (-1,) + (1,) * (k - i - 1))
        for i, d in enumerate(dims)
    )


@lru_cache(maxsize=256)
def _grid(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """One index array per axis of ``dims``, shaped to broadcast over
    (candidates, *dims); cached and read-only: most sweeps are small, and
    their cost is mostly per sweep, not per cell."""
    grid = open_grid((1,) + dims)[1:]
    for g in grid:
        g.flags.writeable = False
    return grid


@lru_cache(maxsize=1024)
def _split(dims: tuple) -> tuple[tuple, tuple | None]:
    """A law's dims as integer sizes and, when some axis is an index set,
    the grid of those sizes with each index set laid along its axis (None
    when every axis is a size).  Cached and read-only: a census or a
    certificate builds the same dims for every map between the same two
    modules."""
    if tuple not in map(type, dims):
        return dims, None
    sizes = tuple(len(d) if type(d) is tuple else d for d in dims)
    grid = tuple(np.array(d, dtype=np.int64)[g] if type(d) is tuple else g
                 for g, d in zip(_grid(sizes), dims))
    for g in grid:
        g.flags.writeable = False
    return sizes, grid


def _blocks(dims: tuple[int, ...], grid, count: int):
    """Split the sweep of ``count`` candidates over ``grid``, of the sizes
    ``dims``, into blocks of at most ``_BLOCK_CELLS`` cells: each block's
    slice of the candidates, its grid, shaped to broadcast over
    (candidates, *dims), and its shape, in lexicographic order.  A sweep
    that fits the budget is one block, returned as a tuple of one with no
    generator to run; a sweep of no cells is the empty tuple (an empty
    ``dims`` is one cell).  A larger sweep is cut by ``_cut``.
    Every sweep of the package passes here, so counting the cells of its
    calls counts the work of the law engine."""
    shape = (count,) + dims
    size = prod(shape)
    if size <= _BLOCK_CELLS:  # most sweeps: one block, no bookkeeping
        return ((slice(0, count), grid, shape),) if size else ()
    return _cut(shape, grid)


def _cut(shape: tuple[int, ...], grid):
    """The blocks of a sweep of ``shape`` (candidates first) larger than
    the budget.  The candidates, then each grid axis in turn, run one index
    at a time until the axes after them fit the budget; the next axis runs
    in ranges."""
    k = next(k for k in range(len(shape)) if prod(shape[k + 1:]) <= _BLOCK_CELLS)
    step = _BLOCK_CELLS // prod(shape[k + 1:])
    for lead in product(*map(range, shape[:k])):
        for a in range(0, shape[k], step):
            index = [slice(i, i + 1) for i in lead] + [slice(a, a + step)]
            cells = tuple(g[(slice(None),) * (j + 1) + (index[j + 1],)] if j < k else g
                          for j, g in enumerate(grid))
            yield index[0], cells, (1,) * k + (min(step, shape[k] - a),) + shape[k + 1:]


# The two evaluators below take the law's values as an argument, so that a
# block's arrays are freed before the next block is evaluated.


def _witnesses(label: str, values, grid, shape, limit: int):
    """At most ``limit`` failing cells of one block as Failures, in
    lexicographic order, each named by its values on ``grid``, and the
    number of failing cells of the block."""
    neq = np.not_equal(*values)
    if not neq.any():
        return [], 0
    lhs, rhs, neq = (np.broadcast_to(v, shape)[0] for v in (*values, neq))
    if limit == 1:  # the first failing cell, without listing the others
        bad = [np.unravel_index(int(neq.argmax()), neq.shape)]
        failing = int(np.count_nonzero(neq))
    else:
        bad = np.argwhere(neq)  # C order == lexicographic
        failing = len(bad)
        bad = map(tuple, bad[:limit].tolist())
    coords = [g.ravel() for g in grid]
    out = []
    for here in bad:
        witness = tuple(int(c[i]) for c, i in zip(coords, here))
        out.append(Failure(label, witness, f"lhs={int(lhs[here])} rhs={int(rhs[here])}"))
    return out, failing


def _fails_per_candidate(values) -> np.ndarray:
    """Per candidate of the block (or one value for all): some cell fails."""
    lhs, rhs = values
    neq = np.asarray(lhs) != np.asarray(rhs)
    return neq.reshape(len(neq), -1).any(axis=1)


# Cells per block, in every sweep.  A candidate-stack law allocates several
# block-sized arrays at once.
_BLOCK_CELLS = 1 << 20


def law_failures(
    label: str,
    dims: Sequence[int],
    law: Law,
    *,
    grid: tuple | None = None,
    all_witnesses: bool = False,
) -> list[Failure]:
    """Evaluate ``law(*grid)`` over the full grid, return [] or the violations:
    the first one, or with ``all_witnesses`` the first ``WITNESS_CAP``, the
    last of which counts the failing cells left out.  ``dims`` are the
    integer sizes of the axes; ``grid``, when some axis runs over an index
    set, is the grid with the index set's values on that axis (see
    ``_split``).

    This is the sweep of a single candidate: the law does not see the
    candidate axis and the witnesses drop it.
    """
    dims = tuple(int(d) for d in dims)
    limit = WITNESS_CAP if all_witnesses else 1
    failures, failing = [], 0
    for _, block, shape in _blocks(dims, _grid(dims) if grid is None else grid, 1):
        found, count = _witnesses(label, law(*block), block, shape, limit - len(failures))
        failures += found
        failing += count
        if failures and not all_witnesses:
            break
    if all_witnesses and failing > len(failures):
        failures[-1] = replace(failures[-1], omitted=failing - len(failures))
    return failures


def _law_parts(laws) -> list[tuple]:
    """Each law as ``(label, full, law, reduced)``: ``full`` is its dims as
    given and as split by ``_split``, ``(dims, sizes, grid)``, and
    ``reduced`` None or its reduced dims in the same form."""
    return [
        (law[0], (law[1], *_split(law[1])), law[2],
         (law[3], *_split(law[3])) if len(law) == 4 and law[3] else None)
        for law in laws
    ]


def _fails(law: Law, sizes: tuple[int, ...], grid, qs: np.ndarray) -> np.ndarray:
    """Per candidate of ``qs``: whether ``law(q, *grid)`` fails somewhere."""
    bad = np.zeros(qs.size, dtype=bool)
    qshape = (-1,) + (1,) * len(sizes)
    for block, cells, _ in _blocks(sizes, _grid(sizes) if grid is None else grid, qs.size):
        bad[block] |= _fails_per_candidate(law(qs[block].reshape(qshape), *cells))
    return bad


class Sweeps:
    """The sweeps of one decision over a stack of ``count`` candidates,
    shared by every route that asks for them.

    A clause is a law body and the dims it is swept over.  Two routes that
    hold the same body object over the same dims get one sweep; each puts
    its own label on the result.  For each clause this keeps which
    candidates have been swept and which of them fail, so a later route
    sweeps only the candidates not decided yet.  For each clause, candidate
    and witness policy it keeps the failures found: first-witness lists and
    exhaustive lists apart.  Only raw sweep results are shared: each route
    still applies the reduced-form rule to its own laws."""

    def __init__(self, count: int):
        self.count = count
        self._decided: dict = {}  # (law, dims) -> (swept, failing), one bool per candidate
        self._found: dict = {}  # (law, dims, candidate, all_witnesses) -> failures

    def _record(self, law, dims) -> tuple[np.ndarray, np.ndarray]:
        record = self._decided.get((law, dims))
        if record is None:
            record = self._decided[law, dims] = (np.zeros(self.count, dtype=bool),
                                                 np.zeros(self.count, dtype=bool))
        return record

    def fails(self, law: Law, dims, sizes, grid, qs: np.ndarray) -> np.ndarray:
        """``_fails`` of the clause, sweeping only the candidates of ``qs``
        not swept before."""
        swept, failing = self._record(law, dims)
        todo = qs[~swept[qs]]
        if todo.size:
            failing[todo] = _fails(law, sizes, grid, todo)
            swept[todo] = True
        return failing[qs]

    def failures(self, label: str, law: Law, dims, sizes, grid, q: int,
                 all_witnesses: bool) -> list[Failure]:
        """``law_failures`` of candidate ``q`` under ``label``: none when a
        sweep has found that the clause holds for q, otherwise one sweep
        per witness policy."""
        swept, failing = self._record(law, dims)
        if swept[q] and not failing[q]:
            return []
        key = (law, dims, q, all_witnesses)
        found = self._found.get(key)
        if found is None:
            found = self._found[key] = law_failures(label, sizes, partial(law, q), grid=grid,
                                                    all_witnesses=all_witnesses)
            swept[q], failing[q] = True, bool(found)
        if found and found[0].law != label:
            return [replace(f, law=label) for f in found]
        return found

    def holds(self, label: str, law: Law, dims, sizes, grid, q: int) -> bool:
        """Whether the clause holds for candidate ``q``, swept at most once."""
        swept, failing = self._record(law, dims)
        if swept[q]:
            return not failing[q]
        return not self.failures(label, law, dims, sizes, grid, q, False)


def _survivors(clauses, alive: np.ndarray, sweeps: Sweeps | None, lead: bool) -> np.ndarray:
    """The candidates of ``alive`` for which every clause of ``clauses``, a
    sequence of ``(dims, sizes, grid, law)``, holds everywhere, swept
    through ``sweeps`` when given.  A candidate that fails a clause is not
    swept by the clauses after it; with ``lead``, no clause is swept once
    candidate 0 has failed."""
    for dims, sizes, grid, law in clauses:
        if alive.size == 0 or (lead and alive[0] != 0):
            break
        if sweeps is None:
            alive = alive[~_fails(law, sizes, grid, alive)]
        else:
            alive = alive[~sweeps.fails(law, dims, sizes, grid, alive)]
    return alive


def passing_candidates(laws: Iterable[tuple], count: int, *, sweeps: Sweeps | None = None,
                       lead: bool = False) -> np.ndarray:
    """One boolean per candidate ``0 .. count-1``: whether ``law(q, *grid)``
    holds everywhere on the grid for every law.  The laws without a reduced
    form run first, in full; only the candidates that pass them all go on
    to the reduced forms.  That is the decision rule of ``run_laws``, so
    the mask is that of the full sweeps.

    With ``sweeps``, a clause it has already decided for a candidate is
    not swept again.  With ``lead``, candidate 0 leads: the sweeps stop as
    soon as it fails, and the mask then decides candidate 0 alone."""
    laws = _law_parts(laws)
    alive = _survivors([(*full, fn) for _, full, fn, reduced in laws if reduced is None],
                       np.arange(count), sweeps, lead)
    alive = _survivors([(*reduced, fn) for *_, fn, reduced in laws if reduced is not None],
                       alive, sweeps, lead)
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def run_laws(laws: Iterable[tuple], *, all_witnesses: bool = False,
             sweeps: Sweeps | None = None, candidate: int = 0) -> Verdict:
    """The verdict of sweeping every law in full, witnesses included.

    The laws without a reduced form are swept in full first.  If they all
    hold, the reduced forms are swept; if those hold too, every law holds
    (by the proofs that come with the reduced forms).  Otherwise the laws
    with a reduced form are swept in full as well, so every failure and
    witness is the exhaustive one.  Failures and ``checked`` keep the law
    order.

    With ``sweeps``, the laws are those of its candidate stack,
    ``law(q, *grid)``, the verdict is that of ``candidate``, and each
    clause is swept through ``sweeps``: not at all when a sweep has found
    that it holds for the candidate, and at most once per witness policy."""
    laws = _law_parts(laws)

    def failures(label, fn, part, every: bool) -> list[Failure]:
        if sweeps is None:
            return law_failures(label, part[1], fn, grid=part[2], all_witnesses=every)
        return sweeps.failures(label, fn, *part, candidate, every)

    def holds(label, fn, part) -> bool:
        if sweeps is None:
            return not failures(label, fn, part, False)
        return sweeps.holds(label, fn, *part, candidate)

    found = {
        i: failures(label, fn, full, all_witnesses)
        for i, (label, full, fn, reduced) in enumerate(laws)
        if reduced is None
    }
    reduced_hold = not any(found.values()) and all(
        holds(label, fn, reduced) for label, _, fn, reduced in laws if reduced is not None
    )
    out: list[Failure] = []
    for i, (label, full, fn, _) in enumerate(laws):
        if i in found:
            out += found[i]
        elif not reduced_hold:
            out += failures(label, fn, full, all_witnesses)
    return Verdict.from_failures(out, [label for label, *_ in laws])
