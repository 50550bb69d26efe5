"""Recompute the order of each n = 3 Hom carrier of the ``hom`` workload by an
exhaustive search that shares no code with the library's deciders or its
enumerator, and compare it with the order the benchmark pins.

    python3 perfbench/pin_hom_orders.py

For sym, gamma and tensor over Z/3, the search runs over every table f with
f(0) = 0 on the free pair (R_e, P(R_ee)), 9^8 = 43,046,721 tables.  It
assigns f(1), f(2), ... in turn and abandons a partial table as soon as a
clause of the definition that involves only assigned values fails: f(A) in B,
the values of the three defects in B, and d_f, f_[x] and f_(r) vanishing
when an argument lies in A.  Each table that survives is decided by the
independent check (``oracle.pair_violation``).  The pruning drops only tables
that the full check would reject, so the count is exact.  Exits 0 when every
count equals the pinned order.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from quadrica import build_example, free_cp_pair  # noqa: E402

from oracle import Tables, pair_violation  # noqa: E402
from workloads import HOM_ORDER_N3  # noqa: E402


def constraints_by_depth(M: Tables):
    """Clause instances filed under the largest table index they read.
    Each is (kind, i, j, k, must_vanish): the value checked is f(i) for
    kind "f", d_f(i, j) for "d", f_(j)(i) for "s" and f_[k](i, j) for "b"."""
    by_depth = [[] for _ in range(M.nm)]

    def file(cells, item):
        by_depth[max(cells)].append(item)

    inA = M.inb
    for a in M.aset:
        file((a,), ("f", a, 0, 0, False))
    for m in range(M.nm):
        for n in range(M.nm):
            file((m, n, M.add[m][n]), ("d", m, n, 0, inA[m] or inA[n]))
            for x in range(M.nee):
                file((m, n, M.br[m][n][x]), ("b", m, n, x, inA[m] or inA[n]))
        for r in range(M.ne):
            file((m, M.scal[m][r]), ("s", m, r, 0, inA[m]))
    return by_depth


def value(kind, i, j, k, F, M: Tables, N: Tables) -> int:
    def sub(a, b):
        return N.add[a][N.neg[b]]

    if kind == "f":
        return F[i]
    if kind == "d":
        return sub(sub(F[M.add[i][j]], F[j]), F[i])
    if kind == "s":
        return sub(F[M.scal[i][j]], N.scal[F[i]][j])
    return sub(F[M.br[i][j][k]], N.br[F[i]][F[j]][k])


def count_quadratic(pair) -> tuple[int, int]:
    """(tables surviving the pruning, tables the independent check accepts)."""
    M = N = Tables(pair)
    by_depth = constraints_by_depth(M)
    F = [0] * M.nm
    leaves = accepted = 0

    def ok(depth):
        return all(N.inb[v] and not (vanish and v)
                   for kind, i, j, k, vanish in by_depth[depth]
                   for v in (value(kind, i, j, k, F, M, N),))

    def search(depth):
        nonlocal leaves, accepted
        if depth == M.nm:
            leaves += 1
            accepted += pair_violation(F, M, N) is None
            return
        for v in range(N.nm):
            F[depth] = v
            if ok(depth):
                search(depth + 1)
        F[depth] = 0

    if ok(0):
        search(1)
    return leaves, accepted


def main() -> int:
    good = True
    for kind in ("sym", "gamma", "tensor"):
        t0 = time.perf_counter()
        leaves, accepted = count_quadratic(free_cp_pair(build_example(kind, 3)))
        good &= accepted == HOM_ORDER_N3
        print(f"{kind} 3: {accepted} quadratic pair maps ({leaves} tables reach the full check, "
              f"{time.perf_counter() - t0:.1f} s); pinned {HOM_ORDER_N3}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
