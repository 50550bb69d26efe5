"""The three workloads.  Each one plans its rounds from the seed, builds its
inputs afresh for every round (``setup``), runs the round's operations
(``run_round``, the timed pass), and afterwards checks every output
(``check``).  An operation whose output fails a check counts as failed."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from oracle import Oracle
import quadrica.cli
from quadrica import (
    Config,
    MapTable,
    batch_bhp_quadratic,
    batch_cp_quadratic,
    build_example,
    compose_quadratic,
    dumps,
    free_cp_pair,
    is_bhp_quadratic,
    is_cp_quadratic,
    set_config,
    three_defects_check,
)

# frozen by the acceptance suite (criterion 3) and by ``pin_hom_orders.py``
PLAIN_CANDIDATES, PAIR_CANDIDATES = 4_553, 23_727
PLAIN_ACCEPTED, PAIR_ACCEPTED = 412, 1_276
HOM_ORDER_N3 = 81

BHP_ROUTES = ("relations", "definition", "reduced")
CP_ROUTES = ("definition", "reduced", "factorization")


@dataclass
class Op:
    """One timed operation and what the checks need of it.  ``group`` names
    the operation across rounds: every round repeats each group's work."""

    kind: str
    seconds: float
    out: dict = field(default_factory=dict)
    group: tuple = ()
    failed: bool = False


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def timed(fn, *args, **kwargs):
    """(result or the exception raised, wall seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as err:  # an operation that raises counts as failed
        out = err
    return out, time.perf_counter() - t0


def _oracle_sample(seed, name, round_no, accepted, rejected, size):
    """Seeded sample of ``size`` accepted and ``size`` rejected items."""
    rng = rng_for(seed, name, round_no, "oracle")
    return (rng.sample(accepted, min(size, len(accepted)))
            + rng.sample(rejected, min(size, len(rejected))))


class Workload:
    """Shared plumbing: a traced run sets ``tracer``, and ``mark`` tags the
    spans of the next operation with its id."""

    tracer = None

    def mark(self, round_no: int, index) -> None:
        if self.tracer is not None:
            self.tracer.op = (round_no, index)


# ---------------------------------------------------------------------------
# census: every candidate table of every block, through all three routes


class Census(Workload):
    name = "census"
    oracle_sample = 100  # per round, of accepted and of rejected candidates

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, round_no: int):
        return inputs.census_blocks()

    def run_round(self, state, round_no: int) -> tuple[list, int]:
        blocks = list(state)
        rng_for(self.seed, self.name, round_no).shuffle(blocks)
        ops = []
        for key, dom, cod, tables in blocks:
            pair = key[1] == "pair"
            decide = batch_cp_quadratic if pair else batch_bhp_quadratic
            for route in CP_ROUTES if pair else BHP_ROUTES:
                self.mark(round_no, len(ops))
                mask, dt = timed(decide, dom, cod, tables, route=route)
                ops.append(Op(f"{key[1]}:{route}", dt,
                              {"key": key, "dom": dom, "cod": cod, "tables": tables, "mask": mask},
                              group=(key, route)))
        return ops, sum(len(b[3]) for b in blocks)

    def check(self, ops: list, round_no: int) -> bool:
        by_block: dict = {}
        for op in ops:
            op.failed = not isinstance(op.out["mask"], np.ndarray)
            by_block.setdefault(op.out["key"], []).append(op)
        counts = {"plain": [0, 0], "pair": [0, 0]}
        accepted, rejected = [], []
        totals_ok = True
        for key, group in by_block.items():
            masks = [op.out["mask"] for op in group if not op.failed]
            majority = next((m for m in masks
                             if sum(np.array_equal(m, o) for o in masks) >= 2), None)
            for op in group:  # a route that disagrees with the other two fails
                op.failed |= majority is None or not np.array_equal(op.out["mask"], majority)
            first = group[0].out
            expected = first["cod"].nm ** first["dom"].nm
            totals_ok &= len(first["tables"]) == expected
            counts[key[1]][0] += expected
            if majority is not None:
                counts[key[1]][1] += int(majority.sum())
                accepted += [(group, i, True) for i in np.flatnonzero(majority)]
                rejected += [(group, i, False) for i in np.flatnonzero(~majority)]
        totals_ok &= counts == {"plain": [PLAIN_CANDIDATES, PLAIN_ACCEPTED],
                                "pair": [PAIR_CANDIDATES, PAIR_ACCEPTED]}
        oracle = Oracle()
        for group, i, decided in _oracle_sample(self.seed, self.name, round_no,
                                                accepted, rejected, self.oracle_sample):
            out = group[0].out
            verdict = oracle.is_quadratic(out["dom"], out["cod"], out["tables"][i],
                                          pair=out["key"][1] == "pair")
            if verdict != decided:
                for op in group:
                    op.failed |= bool(op.out["mask"][i]) != verdict
        return totals_ok


# ---------------------------------------------------------------------------
# certify: one certificate per map, three-defects on accepted maps, and
# compositions of accepted endomorphisms


class Certify(Workload):
    name = "certify"
    slices = 8  # each round takes about 1/slices of every block's accepted maps
    rejected_per_round = 80
    oracle_sample = 25  # per round, of accepted and of rejected maps

    def __init__(self, seed: int, workdir: Path):
        """Plan the rounds from the library's census decision (batch
        deciders, default route), made once per run outside any timing."""
        self.seed = seed
        self.decision: dict = {}
        self.accepted: dict = {}
        rejected = []
        for key, dom, cod, tables in inputs.census_blocks():
            decide = batch_cp_quadratic if key[1] == "pair" else batch_bhp_quadratic
            mask = decide(dom, cod, tables)
            self.decision[key] = mask
            ok = [int(i) for i in np.flatnonzero(mask)]
            rng_for(seed, self.name, key).shuffle(ok)
            if ok:
                self.accepted[key] = ok
            rejected += [(key, int(i)) for i in np.flatnonzero(~mask)]
        rng_for(seed, self.name, "rejected").shuffle(rejected)
        self.rejected = rejected

    def setup(self, round_no: int):
        return {key: (dom, cod, tables) for key, dom, cod, tables in inputs.census_blocks()}

    def plan(self, round_no: int) -> list:
        items = []
        for key, ok in self.accepted.items():
            take = math.ceil(len(ok) / self.slices)
            items += [(key, ok[(round_no * take + i) % len(ok)]) for i in range(take)]
        q = self.rejected_per_round
        items += [self.rejected[(round_no * q + i) % len(self.rejected)] for i in range(q)]
        rng_for(self.seed, self.name, round_no).shuffle(items)
        return items

    def run_round(self, state, round_no: int) -> tuple[list, int]:
        ops, certs = [], {}
        for key, i in self.plan(round_no):
            dom, cod, tables = state[key]
            pair = key[1] == "pair"
            decide = is_cp_quadratic if pair else is_bhp_quadratic
            accepted = bool(self.decision[key][i])
            self.mark(round_no, len(ops))
            t0 = time.perf_counter()
            try:
                f = MapTable(dom, cod, tables[i])
                out = {"cert": decide(f)}
                if accepted:
                    out["three"] = three_defects_check(f)
            except Exception as err:
                out = {"error": err}
            kind = f"{key[1]}:{'accepted' if accepted else 'rejected'}"
            ops.append(Op(kind, time.perf_counter() - t0, dict(out, key=key, index=i),
                          group=(key, kind)))
            if pair and accepted and key[2] == key[3] and "cert" in out:
                certs.setdefault(key, []).append(out["cert"])
        rng = rng_for(self.seed, self.name, round_no, "compose")
        for key in sorted(certs):
            f, g = rng.choice(certs[key]), rng.choice(certs[key])
            self.mark(round_no, len(ops))
            comp, dt = timed(compose_quadratic, g, f)
            ops.append(Op("compose", dt, {"f": f, "g": g, "comp": comp}, group=(key, "compose")))
        return ops, len(ops)

    def _certificate_ok(self, op: Op) -> bool:
        out = op.out
        cert = out.get("cert")
        if cert is None or cert.passed != bool(self.decision[out["key"]][out["index"]]):
            return False
        if not cert.passed:  # a rejection must name a law and a witness
            return bool(cert.verdict.failures) and all(
                f.law and isinstance(f.witness, tuple) for f in cert.verdict.failures)
        return bool(out["three"].passed)

    @staticmethod
    def _composite_ok(op: Op) -> bool:
        comp, f, g = op.out["comp"], op.out["f"].map.table, op.out["g"].map.table
        if isinstance(comp, Exception) or not comp.passed:
            return False
        expected = [int(g[int(f[m])]) for m in range(len(f))]
        return [int(v) for v in comp.map.table] == expected

    def check(self, ops: list, round_no: int) -> bool:
        accepted, rejected = [], []
        for op in ops:
            if op.kind == "compose":
                op.failed = not self._composite_ok(op)
                continue
            op.failed = not self._certificate_ok(op)
            if not op.failed:
                (accepted if op.out["cert"].passed else rejected).append(op)
        oracle = Oracle()
        for op in _oracle_sample(self.seed, self.name, round_no,
                                 accepted, rejected, self.oracle_sample):
            f = op.out["cert"].map
            if oracle.is_quadratic(f.dom, f.cod, f.table, pair=op.out["key"][1] == "pair") \
                    != op.out["cert"].passed:
                op.failed = True
        return True


# ---------------------------------------------------------------------------
# hom: the README's round trip through the CLI, in process


HOM_DOCS = (("rnil", 2), ("sym", 2), ("tensor", 2), ("gamma", 2),
            ("sym", 3), ("gamma", 3), ("tensor", 3))
# the search bound and the group cap admit the n = 3 carriers (81 maps out of
# 9^8 = 43,046,721 tables with f(0) = 0)
HOM_LIMIT = ["--limit", "50000000"]
HOM_FLAGS = ["--cap-group", "128", "--format", "structured"]


class _Capture:
    """Records the Hom module each ``hom`` command builds, so the checks can
    read its carrier; the command's document does not list the maps."""

    def __init__(self):
        self.last = None
        original = quadrica.cli.hom_module

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        quadrica.cli.hom_module = capture


def cli(argv: list) -> tuple[int, str]:
    """Run one ``quadrica`` command in process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = quadrica.cli.main(argv)
        except SystemExit as exit_:  # argument errors leave through argparse
            code = exit_.code
    return code, out.getvalue()


class Hom(Workload):
    name = "hom"
    docs = HOM_DOCS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.capture = _Capture()
        self.oracle = Oracle()
        self.verdicts: dict = {}

    def setup(self, round_no: int):
        """Write each free pair document, built and verified afresh."""
        paths = {}
        for kind, n in self.docs:
            path = self.workdir / f"pair-{kind}{n}.json"
            path.write_text(dumps(free_cp_pair(build_example(kind, n))))
            paths[kind, n] = path
        return paths

    def run_round(self, state, round_no: int) -> tuple[list, int]:
        docs = list(self.docs)
        rng_for(self.seed, self.name, round_no).shuffle(docs)
        ops, maps = [], 0
        for doc in docs:
            src = str(state[doc])
            dst = str(self.workdir / f"hom-{doc[0]}{doc[1]}.json")
            set_config(Config())
            for argv in (["hom", src, src, "--out", dst] + HOM_LIMIT, ["verify", dst], ["gr", dst]):
                self.capture.last = None
                self.mark(round_no, len(ops))
                result, dt = timed(cli, argv + HOM_FLAGS)
                out = {"doc": doc, "src": src, "result": result}
                if argv[0] == "hom" and self.capture.last is not None:
                    hom = self.capture.last
                    out["carrier"] = [[int(v) for v in f.table] for f in hom.maps]
                    out["pair"] = hom.dom_pair
                    maps += len(hom.maps)
                ops.append(Op(argv[0], dt, out, group=(doc, argv[0])))
            set_config(Config())
        return ops, maps

    def _quadratic(self, doc, pair, table) -> bool:
        """The independent check's decision, once per document and table."""
        key = (doc, tuple(table))
        if key not in self.verdicts:
            self.verdicts[key] = self.oracle.is_quadratic(pair, pair, table, pair=True)
        return self.verdicts[key]

    def _exhaustive(self, doc, pair) -> set:
        """All tables with f(0) = 0 that the independent check accepts."""
        return {(0,) + t for t in itertools.product(range(pair.nm), repeat=pair.nm - 1)
                if self._quadratic(doc, pair, (0,) + t)}

    def _carrier_ok(self, op: Op, report: dict) -> bool:
        carrier, pair, doc = op.out.get("carrier"), op.out.get("pair"), op.out["doc"]
        if carrier is None or report.get("order") != len(carrier):
            return False
        tables = {tuple(t) for t in carrier}
        add = pair.group.add
        if len(tables) != len(carrier) or (0,) * pair.nm not in tables:
            return False
        if any(tuple(int(add[a, b]) for a, b in zip(s, t)) not in tables
               for s in tables for t in tables):
            return False
        if not all(self._quadratic(doc, pair, t) for t in tables):
            return False
        if doc[1] == 2:
            return tables == self._exhaustive(doc, pair)
        return len(tables) == HOM_ORDER_N3

    def check(self, ops: list, round_no: int) -> bool:
        order = {}
        for op in ops:
            result = op.out["result"]
            if isinstance(result, Exception) or result[0] != 0:
                op.failed = True
                continue
            report = json.loads(result[1])
            if op.kind == "hom":
                op.failed = not self._carrier_ok(op, report)
                order[op.out["doc"]] = report.get("order")
            elif op.kind == "verify":
                op.failed = not (report.get("passed") and report.get("kind") == "cp_module")
            else:  # the graded object splits the carrier: |M/A|·|A| = |M|
                op.failed = (report["degree1_order"] * report["degree2_order"]
                             != order.get(op.out["doc"]))
        return True


WORKLOADS = {w.name: w for w in (Census, Certify, Hom)}
