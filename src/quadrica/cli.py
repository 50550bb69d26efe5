"""Command-line driver.

Every document named on the command line is read, parsed and verified
before any command logic runs; a command refuses to compute with a
structure that fails verification.  Exit codes: 0 success, 1 verification or
decision failure, 2 unparseable document, 3 a cap or search bound was hit or
memory ran out, 4 usage mismatch (wrong document kind, non-composable maps,
bad arguments).

Output on stdout is deterministic: reports depend only on the input documents
and flags, never on the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Any

import numpy as np

from .config import Config, set_config
from .errors import (
    CapExceeded,
    CertificateInvalid,
    InvalidEpsilon,
    NonCommutativeRing,
    NotAGroup,
    NotAnAlgebra,
    NotARing,
    NotComposable,
    ParseError,
    PreconditionUnmet,
    QuadricaError,
    SearchSpaceTooLarge,
)
from .examples import FAMILY_KINDS, build_example
from .modules import (
    BhpModule,
    CpModule,
    free_cp_pair,
    gr,
    regular_module,
    ree_module,
    verify_bhp_module,
    verify_cp_module,
)
from .quadratic import (
    RELATION_TEXT,
    MapTable,
    compose_quadratic,
    enumerate_cp_quadratic,
    hom_module,
    is_bhp_quadratic,
    is_cp_quadratic,
)
from .serialize import dumps, loads, to_doc
from .squarering import SquareRing, verify_square_ring
from .verdict import Verdict

__all__ = ["main"]


# ---------------------------------------------------------------------------
# loading


def _verify_structure(obj: Any) -> tuple[str, Verdict]:
    if isinstance(obj, SquareRing):
        return "square_ring", verify_square_ring(obj)
    if isinstance(obj, CpModule):
        return "cp_module", verify_cp_module(obj)
    if isinstance(obj, BhpModule):
        return "bhp_module", verify_bhp_module(obj)
    if isinstance(obj, MapTable):
        _, vd = _verify_structure(obj.dom)
        _, vc = _verify_structure(obj.cod)
        return "map", vd.merge(vc)
    raise PreconditionUnmet(f"cannot verify objects of type {type(obj).__name__}")


def _load(path: str) -> tuple[str, Any, Verdict]:
    """The document at ``path`` read, parsed and verified: its kind, the
    structure and its verdict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    obj = loads(text)
    kind, verdict = _verify_structure(obj)
    return kind, obj, verdict


class _Failed(Exception):
    """A refusal that exits 1; ``main`` prints its arguments on stderr, one
    line each."""


def _checked(path: str, loaded: tuple[str, Any, Verdict], want: str, command: str) -> Any:
    """The structure of a loaded document, refused unless it is of kind
    ``want`` and passes verification."""
    kind, obj, verdict = loaded
    if kind != want:
        raise PreconditionUnmet(f"{command} needs a {want} document, got {kind} ({path})")
    if not verdict.passed:
        raise _Failed(f"{path}: {kind} fails verification",
                      *(f"  FAIL {f}" for f in verdict.failures))
    return obj


# ---------------------------------------------------------------------------
# the report


def _verdict_doc(v: Verdict) -> dict:
    return {
        "passed": bool(v.passed),
        "laws_checked": list(v.checked),
        "failures": [{"law": f.law, "witness": list(f.witness), "detail": f.detail}
                     for f in v.failures],
    }


def _verdict_lines(v: Verdict) -> list[str]:
    """A PASS line for each law that holds, then a FAIL line for each
    failure, followed by the identity it breaks when ``RELATION_TEXT``
    states it."""
    failed = set(v.failed_laws())
    return ([f"  PASS {law}" for law in v.checked if law not in failed]
            + [f"  FAIL {f}" + (f"  [{RELATION_TEXT[f.law]}]" if f.law in RELATION_TEXT else "")
               for f in v.failures])


def _report(args, report: dict, lines: list[str], obj: Any = None) -> None:
    """The one writer of a command's output: ``report`` as one JSON object
    when structured, else ``lines``.  A command that emits ``obj`` writes
    its document to --out, or else to stdout: inside the report when
    structured, otherwise ahead of the lines, which then go to stderr so
    that the document pipes clean."""
    out = sys.stdout
    if obj is not None:
        doc = to_doc(obj)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps(doc))
            report["written"] = args.out
        elif args.format == "structured":
            report["doc"] = doc
        else:
            out.write(dumps(doc))
            out = sys.stderr
    print(json.dumps(report, sort_keys=True) if args.format == "structured"
          else "\n".join(lines), file=out)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    kind, _, verdict = _load(args.path)
    report = {"command": "verify", "kind": kind, "provenance": f"file:{args.path}",
              **_verdict_doc(verdict)}
    _report(args, report, [f"kind: {kind}", f"source: file:{args.path}",
                           *_verdict_lines(verdict),
                           f"result: {'PASS' if verdict.passed else 'FAIL'}"])
    return 0 if verdict.passed else 1


def cmd_quad(args) -> int:
    f: MapTable = _checked(args.path, _load(args.path), "map", "quad")
    if isinstance(f.dom, CpModule) and isinstance(f.cod, CpModule):
        cert = is_cp_quadratic(f)
    else:
        cert = is_bhp_quadratic(f)
    routes = [name for name, _ in cert.routes]
    report = {"command": "quad", "kind": cert.kind, "routes": routes,
              **_verdict_doc(cert.verdict)}
    lines = [f"map kind: {cert.kind}", f"routes confirmed: {', '.join(routes)}",
             *_verdict_lines(cert.verdict)]
    if cert.graded is not None:
        fbar, f2 = ([int(v) for v in cert.graded[key]] for key in ("fbar", "f2"))
        report["graded"] = {"degree1": fbar, "degree2": f2}
        lines += [f"induced degree-1 map: {fbar}", f"induced degree-2 map: {f2}"]
    if cert.scalar_defects_quadratic is not None:
        report["scalar_defects_quadratic"] = bool(cert.scalar_defects_quadratic)
        lines.append(f"scalar defects quadratic: {report['scalar_defects_quadratic']}")
    lines.append(f"result: {'QUADRATIC' if cert.passed else 'NOT QUADRATIC'}")
    _report(args, report, lines)
    return 0 if cert.passed else 1


def _load_pair(path: str, command: str) -> CpModule:
    return _checked(path, _load(path), "cp_module", command)


def _once_each(load, paths: tuple[str, ...]) -> list:
    """``load`` of each path in turn, called once per distinct path: a
    document named twice is read, parsed and verified once."""
    done: dict[str, Any] = {}
    for path in paths:
        if path not in done:
            done[path] = load(path)
    return [done[path] for path in paths]


def cmd_enum(args) -> int:
    ma, nb = _once_each(lambda path: _load_pair(path, "enum"), (args.domain, args.codomain))
    maps = enumerate_cp_quadratic(ma, nb, limit=args.limit)
    tables = [[int(v) for v in f.table] for f in maps]
    _report(args, {"command": "enum", "count": len(tables), "tables": tables},
            [f"quadratic pair maps: {len(tables)}", *(f"  {t}" for t in tables)])
    return 0


def cmd_hom(args) -> int:
    ma, nb = _once_each(lambda path: _load_pair(path, "hom"), (args.domain, args.codomain))
    h = hom_module(ma, nb, limit=args.limit)
    report = {"command": "hom", "order": int(h.nm),
              "distinguished_subgroup_order": len(h.aset), "verified": True}
    _report(args, report, [f"hom module order: {h.nm}",
                           f"distinguished subgroup order: {len(h.aset)}",
                           "pair-module verification: PASS"], h)
    return 0


def cmd_compose(args) -> int:
    paths = (args.first, args.then)
    f, g = (_checked(path, doc, "map", "compose")
            for path, doc in zip(paths, _once_each(_load, paths)))
    if not (isinstance(f.dom, CpModule) and isinstance(g.dom, CpModule)):
        raise PreconditionUnmet("compose needs maps between pair modules")
    fc = is_cp_quadratic(f)
    gc = fc if g is f else is_cp_quadratic(g)
    for name, cert in ((args.first, fc), (args.then, gc)):
        if not cert.passed:
            raise _Failed(f"{name}: not quadratic, fails {list(cert.failed_laws())}")
    out = compose_quadratic(gc, fc)
    table = [int(v) for v in out.map.table]
    report = {"command": "compose", "passed": bool(out.passed),
              "routes": [name for name, _ in out.routes], "table": table}
    _report(args, report, [f"composite table: {table}",
                           f"composite is quadratic: {out.passed}"], out.map)
    return 0


def cmd_gr(args) -> int:
    g = gr(_load_pair(args.path, "gr"))
    proj, embed = [int(v) for v in g.proj1], [int(v) for v in g.embed2]
    pairing = np.asarray(g.pairing)
    report = {"command": "gr", "degree1_order": int(g.deg1.order),
              "degree2_order": int(g.deg2.order), "projection": proj,
              "degree2_embedding": embed, "pairing": pairing.tolist()}
    lines = [f"degree 1 (classes mod the distinguished part): order {g.deg1.order}",
             f"degree 2 (the distinguished part): order {g.deg2.order}",
             f"projection to degree 1: {proj}", f"degree-2 embedding: {embed}",
             "pairing [m̄,n̄]·x (rows m̄, columns n̄, one block per x):"]
    for x in range(pairing.shape[2]):
        lines += [f"  x={x}:", *(f"    {row}" for row in pairing[:, :, x].tolist())]
    _report(args, report, lines)
    return 0


# what ``example --emit`` builds over the chosen square ring
_EMITS = {"ring": lambda sr: sr, "pair": free_cp_pair, "regular": regular_module,
          "ree": ree_module}


def cmd_example(args) -> int:
    obj = _EMITS[args.emit](build_example(args.kind, args.n, args.epsilon))
    _, verdict = _verify_structure(obj)
    report = {"command": "example", "kind": args.kind, "n": args.n, "emit": args.emit,
              "verified": bool(verdict.passed)}
    _report(args, report,
            [f"built {args.kind} over Z/{args.n} ({args.emit}); verification PASS"], obj)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this driver reserves 2 for unparseable
    documents, so usage errors exit 4 instead."""

    def error(self, message: str):  # pragma: no cover - exercised via exit code
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _common_flags(sub: argparse.ArgumentParser, *, limit: bool = False,
                  out: bool = False) -> None:
    sub.add_argument("--format", choices=("human", "structured"), default="human",
                     help="report format (structured = one JSON object)")
    sub.add_argument("--cap-group", type=int, default=None,
                     help="largest group order the tools will materialize")
    sub.add_argument("--cap-ring", type=int, default=None,
                     help="largest ring order the tools will materialize")
    if limit:
        sub.add_argument("--limit", type=int, default=1_000_000,
                         help="stop a search that visits more partial tables than this")
    if out:
        sub.add_argument("--out", default=None, help="write the emitted document here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadrica", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("verify", help="verify a structure document, axiom by axiom")
    p.add_argument("path")
    _common_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = commands.add_parser("quad", help="decide whether a map document is quadratic")
    p.add_argument("path")
    _common_flags(p)
    p.set_defaults(fn=cmd_quad)

    p = commands.add_parser("enum", help="census of quadratic pair maps between two pair modules")
    p.add_argument("domain")
    p.add_argument("codomain")
    _common_flags(p, limit=True)
    p.set_defaults(fn=cmd_enum)

    p = commands.add_parser("hom", help="the pair module of quadratic maps, emitted as a document")
    p.add_argument("domain")
    p.add_argument("codomain")
    _common_flags(p, limit=True, out=True)
    p.set_defaults(fn=cmd_hom)

    p = commands.add_parser(
        "compose", help="certify the composite 'SECOND after FIRST' of two map documents"
    )
    p.add_argument("first", help="map applied first")
    p.add_argument("then", help="map applied second")
    _common_flags(p, out=True)
    p.set_defaults(fn=cmd_compose)

    p = commands.add_parser("gr", help="graded degree-1/degree-2 report of a pair module")
    p.add_argument("path")
    _common_flags(p)
    p.set_defaults(fn=cmd_gr)

    p = commands.add_parser("example", help="emit a built-in example structure as a document")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("n", type=int, help="modulus of the base ring Z/n")
    p.add_argument("--epsilon", type=int, default=None,
                   help="deformation parameter (gamma family)")
    p.add_argument("--emit", choices=tuple(_EMITS), default="ring",
                   help="which structure to emit over the chosen ring")
    _common_flags(p, out=True)
    p.set_defaults(fn=cmd_example)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (about 2 ms a build).  Each parse
    returns a fresh namespace, so no call inherits another call's flags."""
    return build_parser()


# the exit code and stderr prefix of each refusal, the first match winning
_EXITS = (
    ((NotAGroup, NotARing, NotAnAlgebra), 1, "verification failure"),
    (ParseError, 2, "parse error"),
    ((CapExceeded, SearchSpaceTooLarge), 3, "bound exceeded"),
    ((NotComposable, PreconditionUnmet, NonCommutativeRing, InvalidEpsilon,
      CertificateInvalid), 4, "usage mismatch"),
)
# a well-formed document whose tables fail an axiom or a cap is refused for
# that, not as unparseable
_READ_AS_CAUSE = (NotAGroup, NotARing, NotAnAlgebra, CapExceeded)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    overrides: dict[str, Any] = {}
    if args.cap_group is not None:
        overrides["cap_group"] = args.cap_group
    if args.cap_ring is not None:
        overrides["cap_ring"] = args.cap_ring
    try:
        set_config(Config(**overrides))
    except ValueError as err:  # e.g. a non-positive cap
        print(f"usage mismatch: {err}", file=sys.stderr)
        return 4
    try:
        return args.fn(args)
    except _Failed as err:
        print(*err.args, sep="\n", file=sys.stderr)
        return 1
    except MemoryError:
        print("bound exceeded: out of memory; lower --cap-group or --cap-ring, "
              "or allow the process more memory", file=sys.stderr)
        return 3
    except QuadricaError as err:
        if isinstance(err, ParseError) and isinstance(err.__cause__, _READ_AS_CAUSE):
            err = err.__cause__
        for kinds, code, prefix in _EXITS:
            if isinstance(err, kinds):
                print(f"{prefix}: {err}", file=sys.stderr)
                return code
        raise

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
