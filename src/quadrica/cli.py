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
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    obj = loads(text)
    kind, verdict = _verify_structure(obj)
    return kind, obj, verdict


class _Unverified(Exception):
    """A document that fails verification; ``main`` prints its failures and
    exits 1.  Arguments: the path, the kind and the verdict."""


def _checked(path: str, loaded: tuple[str, Any, Verdict], want: str, command: str) -> Any:
    """The structure of a loaded document, refused unless it is of kind
    ``want`` and passes verification."""
    kind, obj, verdict = loaded
    if kind != want:
        raise PreconditionUnmet(f"{command} needs a {want} document, got {kind} ({path})")
    if not verdict.passed:
        raise _Unverified(path, kind, verdict)
    return obj


# ---------------------------------------------------------------------------
# report plumbing


def _failure_doc(f) -> dict:
    return {"law": f.law, "witness": list(f.witness), "detail": f.detail}


def _verdict_doc(v: Verdict) -> dict:
    laws = list(dict.fromkeys(v.checked))
    return {
        "passed": bool(v.passed),
        "laws_checked": laws,
        "failures": [_failure_doc(f) for f in v.failures],
    }


def _print_verdict_human(v: Verdict, out) -> None:
    failed = set(v.failed_laws())
    for law in dict.fromkeys(v.checked):
        if law not in failed:
            print(f"  PASS {law}", file=out)
    for f in v.failures:
        text = RELATION_TEXT.get(f.law)
        suffix = f"  [{text}]" if text else ""
        print(f"  FAIL {f.law} at {f.witness}: {f.detail}{suffix}", file=out)


def _emit(obj: Any, report: dict, args, human_lines: list[str]) -> None:
    """Emitting commands: the document of ``obj`` goes to --out (or stdout,
    inside the report when structured), the report goes to stdout
    (structured) or stderr (human) so piping stays clean."""
    doc = to_doc(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        report["written"] = args.out
        if args.format == "structured":
            print(json.dumps(report, sort_keys=True))
        else:
            for line in human_lines:
                print(line)
    else:
        if args.format == "structured":
            report["doc"] = doc
            print(json.dumps(report, sort_keys=True))
        else:
            sys.stdout.write(dumps(doc))
            for line in human_lines:
                print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    kind, _, verdict = _load(args.path)
    if args.format == "structured":
        report = {
            "command": "verify",
            "kind": kind,
            "provenance": f"file:{args.path}",
            **_verdict_doc(verdict),
        }
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"kind: {kind}")
        print(f"source: file:{args.path}")
        _print_verdict_human(verdict, sys.stdout)
        print(f"result: {'PASS' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 1


def cmd_quad(args) -> int:
    f: MapTable = _checked(args.path, _load(args.path), "map", "quad")
    if isinstance(f.dom, CpModule) and isinstance(f.cod, CpModule):
        cert = is_cp_quadratic(f)
    else:
        cert = is_bhp_quadratic(f)
    if args.format == "structured":
        report = {
            "command": "quad",
            "kind": cert.kind,
            "routes": [name for name, _ in cert.routes],
            **_verdict_doc(cert.verdict),
        }
        if cert.graded is not None:
            report["graded"] = {
                "degree1": [int(v) for v in cert.graded["fbar"]],
                "degree2": [int(v) for v in cert.graded["f2"]],
            }
        if cert.scalar_defects_quadratic is not None:
            report["scalar_defects_quadratic"] = bool(cert.scalar_defects_quadratic)
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"map kind: {cert.kind}")
        print(f"routes confirmed: {', '.join(name for name, _ in cert.routes)}")
        _print_verdict_human(cert.verdict, sys.stdout)
        if cert.graded is not None:
            print(f"induced degree-1 map: {[int(v) for v in cert.graded['fbar']]}")
            print(f"induced degree-2 map: {[int(v) for v in cert.graded['f2']]}")
        if cert.scalar_defects_quadratic is not None:
            print(f"scalar defects quadratic: {cert.scalar_defects_quadratic}")
        print(f"result: {'QUADRATIC' if cert.passed else 'NOT QUADRATIC'}")
    return 0 if cert.passed else 1


def _load_pair(path: str, command: str) -> CpModule:
    return _checked(path, _load(path), "cp_module", command)


def cmd_enum(args) -> int:
    ma = _load_pair(args.domain, "enum")
    nb = _load_pair(args.codomain, "enum")
    maps = enumerate_cp_quadratic(ma, nb, limit=args.limit)
    tables = [[int(v) for v in f.table] for f in maps]
    if args.format == "structured":
        print(json.dumps({"command": "enum", "count": len(tables), "tables": tables},
                         sort_keys=True))
    else:
        print(f"quadratic pair maps: {len(tables)}")
        for t in tables:
            print(f"  {t}")
    return 0


def cmd_hom(args) -> int:
    ma = _load_pair(args.domain, "hom")
    nb = _load_pair(args.codomain, "hom")
    h = hom_module(ma, nb, limit=args.limit)
    report = {
        "command": "hom",
        "order": int(h.nm),
        "distinguished_subgroup_order": len(h.aset),
        "verified": True,
    }
    lines = [
        f"hom module order: {h.nm}",
        f"distinguished subgroup order: {len(h.aset)}",
        "pair-module verification: PASS",
    ]
    _emit(h, report, args, lines)
    return 0


def cmd_compose(args) -> int:
    loaded = [(path, _load(path)) for path in (args.first, args.then)]
    f, g = (_checked(path, doc, "map", "compose") for path, doc in loaded)
    if not (isinstance(f.dom, CpModule) and isinstance(g.dom, CpModule)):
        raise PreconditionUnmet("compose needs maps between pair modules")
    fc = is_cp_quadratic(f)
    gc = is_cp_quadratic(g)
    for name, cert in ((args.first, fc), (args.then, gc)):
        if not cert.passed:
            print(f"{name}: not quadratic, fails {list(cert.failed_laws())}", file=sys.stderr)
            return 1
    out = compose_quadratic(gc, fc)
    report = {
        "command": "compose",
        "passed": bool(out.passed),
        "routes": [name for name, _ in out.routes],
        "table": [int(v) for v in out.map.table],
    }
    lines = [
        f"composite table: {[int(v) for v in out.map.table]}",
        f"composite is quadratic: {out.passed}",
    ]
    _emit(out.map, report, args, lines)
    return 0


def cmd_gr(args) -> int:
    g = gr(_load_pair(args.path, "gr"))
    if args.format == "structured":
        report = {
            "command": "gr",
            "degree1_order": int(g.deg1.order),
            "degree2_order": int(g.deg2.order),
            "projection": [int(v) for v in g.proj1],
            "degree2_embedding": [int(v) for v in g.embed2],
            "pairing": np.asarray(g.pairing).tolist(),
        }
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"degree 1 (classes mod the distinguished part): order {g.deg1.order}")
        print(f"degree 2 (the distinguished part): order {g.deg2.order}")
        print(f"projection to degree 1: {[int(v) for v in g.proj1]}")
        print(f"degree-2 embedding: {[int(v) for v in g.embed2]}")
        print("pairing [m̄,n̄]·x (rows m̄, columns n̄, one block per x):")
        pairing = np.asarray(g.pairing)
        for x in range(pairing.shape[2]):
            print(f"  x={x}:")
            for row in pairing[:, :, x]:
                print(f"    {[int(v) for v in row]}")
    return 0


def cmd_example(args) -> int:
    sr = build_example(args.kind, args.n, args.epsilon)
    if args.emit == "ring":
        obj: Any = sr
    elif args.emit == "pair":
        obj = free_cp_pair(sr)
    elif args.emit == "regular":
        obj = regular_module(sr)
    else:
        obj = ree_module(sr)
    _, verdict = _verify_structure(obj)
    report = {
        "command": "example",
        "kind": args.kind,
        "n": args.n,
        "emit": args.emit,
        "verified": bool(verdict.passed),
    }
    lines = [f"built {args.kind} over Z/{args.n} ({args.emit}); verification PASS"]
    _emit(obj, report, args, lines)
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
    p.add_argument("--emit", choices=("ring", "pair", "regular", "ree"), default="ring",
                   help="which structure to emit over the chosen ring")
    _common_flags(p, out=True)
    p.set_defaults(fn=cmd_example)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (about 2 ms a build).  Each parse
    returns a fresh namespace, so no call inherits another call's flags."""
    return build_parser()


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
    except _Unverified as err:
        path, kind, verdict = err.args
        print(f"{path}: {kind} fails verification", file=sys.stderr)
        for f in verdict.failures:
            print(f"  FAIL {f.law} at {f.witness}: {f.detail}", file=sys.stderr)
        return 1
    except ParseError as err:
        cause = err.__cause__
        if isinstance(cause, (NotAGroup, NotARing, NotAnAlgebra)):
            print(f"verification failure: {cause}", file=sys.stderr)
            return 1
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (CapExceeded, SearchSpaceTooLarge) as err:
        print(f"bound exceeded: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        print("bound exceeded: out of memory; lower --cap-group or --cap-ring, "
              "or allow the process more memory", file=sys.stderr)
        return 3
    except (NotComposable, PreconditionUnmet, NonCommutativeRing, InvalidEpsilon,
            CertificateInvalid) as err:
        print(f"usage mismatch: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
