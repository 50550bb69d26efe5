from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrica.cli as cli
import quadrica.quadratic as quadratic
from quadrica import (
    FAMILY_KINDS,
    Config,
    CpModule,
    Failure,
    MapTable,
    build_example,
    cyclic,
    direct_product,
    dumps,
    free_cp_pair,
    get_config,
    regular_module,
    to_doc,
    verify_cp_module,
)
from quadrica.cli import main
from quadrica.serialize import KINDS

from conftest import triangular_square_ring


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_doc(tmp_path, name, obj):
    return write(tmp_path, name, dumps(to_doc(obj)))


def square_map_doc(tmp_path, n, name="square.map"):
    sr = build_example("tensor", n)
    pair = free_cp_pair(sr)
    f = MapTable(pair, pair, sr.re.mul[np.arange(pair.nm), np.arange(pair.nm)])
    return write_doc(tmp_path, name, f)


def test_example_then_verify(tmp_path, capsys):
    path = str(tmp_path / "sym2.ring")
    assert main(["example", "sym", "2", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "AC0" in out and "AC8" in out
    assert "FAIL" not in out


def test_verify_structured_report(tmp_path, capsys):
    path = str(tmp_path / "rnil3.pair")
    assert main(["example", "rnil", "3", "--emit", "pair", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert "MC0" in doc["laws_checked"] and "MC7b" in doc["laws_checked"]
    assert doc["failures"] == []


def test_verify_prints_witnesses_that_name_elements_of_a(tmp_path, capsys):
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    path = write_doc(tmp_path, "bad.pair", CpModule(sr, reg.group, reg.scal, reg.bracket, (0, 2)))
    assert main(["verify", path]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert fails[:2] == [
        "  FAIL MC0 at (2, 1): lhs=0 rhs=1",
        "  FAIL MC7a at (2, 2, 1): lhs=1 rhs=0",
    ]


def test_verify_structured_report_lists_each_failure(tmp_path, capsys):
    """The structured report of a failing document: exit 1, and one entry
    per failure with its law, witness and detail, in law order."""
    sr = build_example("sym", 2)
    reg = regular_module(sr)
    path = write_doc(tmp_path, "bad.pair", CpModule(sr, reg.group, reg.scal, reg.bracket, (0, 2)))
    assert main(["verify", path, "--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["failures"] == [
        {"law": "MC0", "witness": [2, 1], "detail": "lhs=0 rhs=1"},
        {"law": "MC7a", "witness": [2, 2, 1], "detail": "lhs=1 rhs=0"},
        {"law": "MC7b", "witness": [2, 2, 1], "detail": "lhs=0 rhs=1"},
    ]


def test_a_distinguished_part_that_is_no_subgroup_fails_verification(tmp_path, capsys):
    """Over ``lambda 2``, the zero-bracket module (Z/2)² with m·1 = m and
    A = {0, 1, 2} satisfies every other law of a pair module, but 1 + 2 = 3
    leaves A.  MC0 names that sum, and every command that loads the pair
    refuses it with exit 1."""
    sr = build_example("lambda", 2)
    scal = np.zeros((4, sr.re.order), dtype=np.int64)
    scal[:, int(sr.re.one)] = np.arange(4)
    pair = CpModule(sr, direct_product(cyclic(2), cyclic(2)), scal,
                    np.zeros((4, 4, sr.ree.order), dtype=np.int64), (0, 1, 2))
    assert verify_cp_module(pair).failures == (Failure("MC0", (1, 2), "lhs=0 rhs=1"),)
    path = write_doc(tmp_path, "nonsubgroup.pair", pair)
    for argv in (["verify", path], ["gr", path], ["enum", path, path], ["hom", path, path]):
        assert main(argv) == 1, argv
        assert "MC0 at (1, 2)" in "".join(capsys.readouterr())


def test_a_pair_without_zero_in_a_exits_1_naming_mc0(tmp_path, capsys):
    """A = {} is closed under sums and scalars but holds no 0: MC0 names
    the witness (0,), and every command that loads the pair refuses it
    with exit 1."""
    pair = free_cp_pair(build_example("sym", 2))
    doc = json.loads(dumps(to_doc(pair)))
    doc["aset"] = []
    path = write(tmp_path, "empty.pair", json.dumps(doc))
    for argv in (["verify", path], ["gr", path], ["hom", path, path]):
        assert main(argv) == 1, argv
        assert "MC0 at (0,): lhs=0 rhs=1" in "".join(capsys.readouterr())


def test_quad_accepts_the_boolean_square(tmp_path, capsys):
    path = square_map_doc(tmp_path, 2)
    assert main(["quad", path]) == 0
    out = capsys.readouterr().out
    assert "QUADRATIC" in out
    assert main(["quad", path, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    # the verdict itself is the defining route; the extras are cross-checks
    assert {"reduced", "factorization"} <= set(doc["routes"])


def test_quad_rejects_the_nonboolean_square(tmp_path, capsys):
    path = square_map_doc(tmp_path, 3)
    assert main(["quad", path]) == 1
    out = capsys.readouterr().out
    assert "NOT QUADRATIC" in out
    assert "FAIL" in out


def test_quad_output_is_deterministic(tmp_path, capsys):
    path = square_map_doc(tmp_path, 3)
    main(["quad", path])
    first = capsys.readouterr().out
    main(["quad", path])
    second = capsys.readouterr().out
    assert first == second


def test_parse_failures_exit_two(tmp_path, capsys):
    bad = write(tmp_path, "broken.doc", "{ nope")
    missing = str(tmp_path / "does-not-exist.doc")
    pair = to_doc(free_cp_pair(build_example("sym", 2)))
    nested = dict(pair, square_ring=pair)  # a module where the ring belongs
    utf16 = tmp_path / "utf16.doc"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")  # not UTF-8
    deep = write(tmp_path, "deep.doc", "[" * 100_000 + "]" * 100_000)
    long = write(tmp_path, "long.doc", "9" * 5000)  # over the int conversion limit
    for path in (bad, missing, write(tmp_path, "nested.pair", json.dumps(nested)),
                 str(utf16), deep, long):
        assert main(["verify", path]) == 2, path
        assert capsys.readouterr().err.startswith("parse error: ")


def test_carrier_axiom_failures_exit_one(tmp_path, capsys):
    doc = json.loads(dumps(to_doc(free_cp_pair(build_example("sym", 2)))))
    doc["group"]["add"][0] = [1, 0, 2, 3]  # rectangular, but 0 is no identity
    bad = write(tmp_path, "notagroup.doc", json.dumps(doc))
    assert main(["verify", bad]) == 1


def test_a_module_over_a_failing_ring_exits_one_with_the_ring_s_failures(tmp_path, capsys):
    """A module document decodes whatever its ring's laws; its verdict is
    the ring's, so every command refuses it with exit 1 and the ring's
    FAIL lines, as it refuses the ring read alone; a map over the module
    lists each of them once."""
    doc = json.loads(dumps(to_doc(free_cp_pair(build_example("sym", 2)))))
    doc["square_ring"]["t"] = [0] * len(doc["square_ring"]["t"])  # T(T(1)) = 0, not 1
    fails = ["  FAIL T-involution at (1,): lhs=0 rhs=1", "  FAIL AC2 at (1,): lhs=0 rhs=1",
             "  FAIL AC3 at (1,): lhs=0 rhs=1"]
    pair = write(tmp_path, "bad.pair", json.dumps(doc))
    assert main(["verify", pair]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "FAIL" in line] == [*fails, "result: FAIL"]
    for argv in (["gr", pair], ["hom", pair, pair], ["enum", pair, pair]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err.splitlines() == [
            f"{pair}: cp_module fails verification", *fails]
    square = write(tmp_path, "bad.map", json.dumps(
        {"kind": "map", "dom": doc, "cod": doc, "table": [0, 1, 0, 1]}))
    assert main(["quad", square]) == 1  # each failure once, not once per module
    assert capsys.readouterr().err.splitlines() == [f"{square}: map fails verification", *fails]
    assert main(["verify", square]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "FAIL" in line] == [*fails, "result: FAIL"]
    doc["scal"] = doc["scal"][:-1]  # a table of the wrong shape is still unparseable
    assert main(["verify", write(tmp_path, "short.pair", json.dumps(doc))]) == 2
    assert capsys.readouterr().err == "parse error: scal shape (3, 4), expected (4, 4)\n"


GOLDEN = Path(__file__).parent / "data" / "sym2_regular_broken.golden.json"


def test_a_failing_document_prints_its_recorded_report_byte_for_byte(monkeypatch, capsys):
    """The ``sym 2`` regular module with bracket[0, 0, 0] raised by 1 fails
    MC2 and MC3, which have no reduced form, and MC5 to MC7, which do.
    ``verify`` of it in both formats, and ``quad`` of the identity map over
    it in both formats, print the recorded stdout and stderr and exit with
    the recorded code: the failure list that a report reads is built on
    that read, and it neither reorders nor drops a FAIL line.  The record
    is that of the engine that listed every failure before returning."""
    monkeypatch.chdir(GOLDEN.parent)
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(run["argv"][0] for run in runs.values()) == ["quad", "quad", "verify", "verify"]
    for run in runs.values():
        assert main(run["argv"]) == run["exit"] == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (run["stdout"], run["stderr"])


@pytest.mark.parametrize("field", ["absent", True, "no", [1]], ids=["absent", "true", "no", "list"])
def test_a_ring_document_s_right_distributive_field_is_not_an_instruction(tmp_path, capsys,
                                                                         field):
    """R_e of a square ring is right-distributive only up to AC7, which
    verification checks; the field a document carries is not read."""
    doc = json.loads(dumps(to_doc(build_example("tensor", 3))))
    assert doc["re"]["right_distributive"] is False
    if field == "absent":
        del doc["re"]["right_distributive"]
    else:
        doc["re"]["right_distributive"] = field
    assert main(["verify", write(tmp_path, "tensor3.ring", json.dumps(doc))]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


def test_enum_census_and_limit(tmp_path, capsys):
    pair = write_doc(tmp_path, "sym2.pair", free_cp_pair(build_example("sym", 2)))
    assert main(["enum", pair, pair]) == 0
    out = capsys.readouterr().out
    assert "8" in out
    assert main(["enum", pair, pair, "--limit", "3"]) == 3


def test_the_limit_counts_the_search_nodes_visited(tmp_path, capsys):
    """The Z/3 ``sym`` free pair has 9^8 tables with f(0) = 0, but its
    pruned search visits between 1,000 and 1,000,000 partial tables: the
    default limit lets it finish, and only the group cap stops the 81-map
    carrier."""
    pair = write_doc(tmp_path, "sym3.pair", free_cp_pair(build_example("sym", 3)))
    capsys.readouterr()
    assert main(["enum", pair, pair, "--limit", "1000"]) == 3
    assert "search visited more than 1000 nodes" in capsys.readouterr().err
    assert main(["hom", pair, pair]) == 3
    assert "hom-module carrier has 81 elements, cap is 64" in capsys.readouterr().err
    assert main(["hom", pair, pair, "--cap-group", "128"]) == 0
    assert "hom module order: 81" in capsys.readouterr().err


def test_hom_emits_a_verifiable_document(tmp_path, capsys):
    pair = write_doc(tmp_path, "sym2.pair", free_cp_pair(build_example("sym", 2)))
    out_path = str(tmp_path / "hom.cpmod")
    assert main(["hom", pair, pair, "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["verify", out_path]) == 0


def test_hom_respects_caps(tmp_path, capsys):
    pair = write_doc(tmp_path, "sym2.pair", free_cp_pair(build_example("sym", 2)))
    assert main(["hom", pair, pair, "--cap-group", "4"]) == 3


def test_compose_certifies_and_rejects_mismatches(tmp_path, capsys):
    sr = build_example("tensor", 2)
    pair = free_cp_pair(sr)
    sq = MapTable(pair, pair, sr.re.mul[np.arange(4), np.arange(4)])
    first = write_doc(tmp_path, "sq.map", sq)
    assert main(["compose", first, first]) == 0
    other = write_doc(
        tmp_path,
        "zero.map",
        MapTable(*(free_cp_pair(build_example("sym", 2)),) * 2, np.zeros(4, dtype=np.int64)),
    )
    assert main(["compose", first, other]) == 4


def test_compose_decides_each_distinct_certificate_once(tmp_path, capsys, monkeypatch):
    """``compose X X`` decides X once in the command and re-validates it
    once in ``compose_quadratic``, and decides the composite: 3 decisions,
    with the output of ``compose X Y`` for a copy Y, which makes 5."""
    text = Path(square_map_doc(tmp_path, 2)).read_text()
    first, copy = write(tmp_path, "first.map", text), write(tmp_path, "copy.map", text)
    decide, calls = quadratic._decide, []
    monkeypatch.setattr(quadratic, "_decide", lambda *a: calls.append(a) or decide(*a))
    runs = {}
    for paths in ((first, first), (first, copy)):
        calls.clear()
        runs[paths] = (main(["compose", *paths]), capsys.readouterr().out, len(calls))
    assert runs[first, first][:2] == runs[first, copy][:2]
    assert runs[first, first][0] == 0
    assert (runs[first, first][2], runs[first, copy][2]) == (3, 5)


@pytest.mark.parametrize("command", ["hom", "enum", "compose"])
def test_a_document_named_twice_is_loaded_once(tmp_path, capsys, monkeypatch, command):
    """``X X`` reads, parses and verifies X once, and prints what ``X Y``
    prints for a byte-identical copy Y."""
    if command == "compose":
        text = Path(square_map_doc(tmp_path, 2)).read_text()
    else:
        text = dumps(free_cp_pair(build_example("sym", 2)))
    first, copy = write(tmp_path, "first.doc", text), write(tmp_path, "copy.doc", text)
    loads_of = []
    load = cli._load

    def counting(path):
        loads_of.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load", counting)
    runs = {}
    for paths in ((first, copy), (first, first)):
        loads_of.clear()
        code = main([command, *paths])
        runs[paths] = (code, capsys.readouterr().out)
        assert sorted(loads_of) == sorted(set(paths))
    assert runs[first, first] == runs[first, copy]
    assert runs[first, first][0] == 0 and runs[first, first][1]


def test_usage_mismatches_exit_four(tmp_path, capsys):
    ring = write_doc(tmp_path, "sym2.ring", build_example("sym", 2))
    assert main(["quad", ring]) == 4  # a ring is not a map
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 4
    with pytest.raises(SystemExit) as info:
        main(["example", "sym"])  # missing the modulus
    assert info.value.code == 4


@pytest.mark.parametrize("flag", ["--cap-group", "--cap-ring"])
def test_non_positive_caps_exit_four(tmp_path, capsys, flag):
    pair = write_doc(tmp_path, "sym2.pair", free_cp_pair(build_example("sym", 2)))
    assert main(["verify", pair, flag, "0"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("usage mismatch: ") and captured.out == ""


def test_quad_requires_a_commutative_base(tmp_path, capsys):
    sr = triangular_square_ring()
    reg = regular_module(sr)
    path = write_doc(tmp_path, "noncomm.map", MapTable(reg, reg, np.arange(8)))
    assert main(["quad", path]) == 4


def test_invalid_epsilon_exits_four(tmp_path, capsys):
    assert main(["example", "gamma", "3", "--epsilon", "1"]) == 4


def test_gr_report(tmp_path, capsys):
    pair = write_doc(tmp_path, "tensor2.pair", free_cp_pair(build_example("tensor", 2)))
    assert main(["gr", pair]) == 0
    out = capsys.readouterr().out
    assert "degree 1" in out and "degree 2" in out
    main(["gr", pair, "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree1_order"] == 2 and doc["degree2_order"] == 2


def test_example_emit_variants(tmp_path, capsys):
    for emit in ("ring", "pair", "regular", "ree"):
        assert main(["example", "rnil", "4", "--emit", emit]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("emit", ["ring", "pair"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_every_example_keeps_the_exit_code_contract(capsys, kind, emit, fmt):
    """``example K n`` for n = 1..5 returns a code in 0–4 (a traceback would
    escape ``main``).  n = 1 is the zero ring, whose unit is 0, and builds;
    the pair rings at n = 5 have 25 elements, above the ring cap."""
    for n in range(1, 6):
        code = main(["example", kind, str(n), "--emit", emit, "--format", fmt])
        err = capsys.readouterr().err
        assert code in range(5) and "Traceback" not in err
        if n == 1:
            assert code == 0
        if n == 5 and kind in ("tensor", "sym", "gamma"):
            assert code == 3 and err.startswith("bound exceeded: ring carrier has 25 elements")


def test_the_removed_profile_flag_exits_four(tmp_path, capsys):
    path = square_map_doc(tmp_path, 2)
    with pytest.raises(SystemExit) as stop:
        main(["quad", path, "--profile", "release"])
    assert stop.value.code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: quadrica") and "unrecognized arguments: --profile" in err


@pytest.mark.parametrize("command", ["enum", "hom"])
def test_pairs_over_different_square_rings_exit_four(tmp_path, capsys, command):
    paths = {}
    for kind in ("classical", "sym"):
        paths[kind] = str(tmp_path / f"{kind}2.pair")
        assert main(["example", kind, "2", "--emit", "pair", "--out", paths[kind]]) == 0
    capsys.readouterr()
    for dom, cod in (("classical", "sym"), ("sym", "classical")):
        assert main([command, paths[dom], paths[cod]]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage mismatch: domain and codomain live over different square rings\n"


# sha256 of stdout, and its length, for emitting commands with no --out in
# the structured format: the report with the document embedded
EMITTED = {
    "ring": (864, "453ec28350ab4069c7b0e858cf8d4eab34ef09b1b189cf93d39d56b95714b864"),
    "pair": (25402, "1670036901d61aa370133489bd6cbc9fd8cb9f8f4d9425f105cc58b3327a7f69"),
    "map": (3599, "647c0de0704fe9148bf740de282f3ce0a46ab726acf0d90cc28da1989b9e3f1c"),
}


def test_structured_reports_embed_the_document_unchanged(tmp_path, capsys):
    """The embedded document is the one ``dumps`` writes, read back."""
    square = square_map_doc(tmp_path, 2)
    for what, argv, report in (
        ("ring", ["example", "sym", "2"], {"command": "example", "kind": "sym", "n": 2,
                                           "emit": "ring", "verified": True}),
        ("pair", ["example", "tensor", "3", "--emit", "pair"],
         {"command": "example", "kind": "tensor", "n": 3, "emit": "pair", "verified": True}),
        ("map", ["compose", square, square], None),
    ):
        assert main(argv + ["--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == EMITTED[what]
        doc = json.loads(out)["doc"]
        if report is not None:
            text = json.dumps(report | {"doc": doc}, sort_keys=True) + "\n"
            assert out == text
        assert main(argv + ["--out", str(tmp_path / what)]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / what).read_text()) == doc


# Subprocesses import the package this process imported, also when it is
# found through pytest's ``pythonpath`` rather than PYTHONPATH.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadrica.cli", "example", "sym", "2"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "square_ring"


# Verifies a document with the address space of the process capped at what
# the interpreter holds after importing the CLI plus a budget in bytes; any
# further arguments are passed on to ``verify``.
_VERIFY_UNDER_BUDGET = """
import resource, sys
from quadrica.cli import main
kib = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:"))
limit = kib * 1024 + int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(["verify", sys.argv[1], *sys.argv[3:]]))
"""

GAMMA4_HOM = Path(__file__).parent / "data" / "gamma4_hom.cpmod"


def verify_under_budget(doc, budget_mb: int, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _VERIFY_UNDER_BUDGET, str(doc), str(budget_mb << 20), *flags],
        capture_output=True,
        text=True,
        env=dict(SUBPROCESS_ENV, OPENBLAS_NUM_THREADS="1"),
    )


def with_a_raised_bracket(doc: Path, tmp_path) -> str:
    """The pair module of ``doc`` with bracket[1,1,1] raised by 1 mod |M|."""
    bad = json.loads(doc.read_text())
    bad["bracket"][1][1][1] = (bad["bracket"][1][1][1] + 1) % len(bad["group"]["add"])
    return write(tmp_path, "bad.cpmod", json.dumps(bad, separators=(",", ":")))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_64_element_hom_carrier_verifies_at_the_default_caps_within_48_mb():
    """The Hom of the Z/4 ``gamma`` free pair (64 maps, written by
    ``quadrica hom`` and stored as compact JSON): 64 elements is the
    default group cap.  Swept in full, its MC6 grid alone has
    64·64·16·16·4·16 ≈ 67M cells and needs more than 48 MB on top of the
    interpreter; on pairs of its 4 generators it has 262k."""
    proc = verify_under_budget(GAMMA4_HOM, 48)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "result: PASS"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_failing_64_element_module_is_decided_within_48_mb(tmp_path):
    """One bracket entry of the same carrier changed: the module fails
    MC2, MC3, MC5, MC6 and MC7a, so every law with a reduced form is swept
    in full as well, MC6 over ≈ 67M cells.  Every sweep runs in blocks of
    one cell budget, so the verdict and its first witness come within the
    same 48 MB as the passing carrier's."""
    proc = verify_under_budget(with_a_raised_bracket(GAMMA4_HOM, tmp_path), 48)
    assert proc.returncode == 1, proc.stderr
    fails = [line for line in proc.stdout.splitlines() if "FAIL" in line]
    assert fails[0] == "  FAIL MC2 at (1, 1, 1): lhs=0 rhs=1"
    assert fails[-1] == "result: FAIL"


@pytest.fixture(scope="module")
def tensor4_hom(tmp_path_factory) -> Path:
    """The Hom of the Z/4 ``tensor`` free pair, 128 elements, beyond the
    default group cap: written by ``quadrica hom --cap-group 128``."""
    out = tmp_path_factory.mktemp("tensor4")
    pair, hom = str(out / "tensor4.pair"), out / "tensor4.hom"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example", "tensor", "4", "--emit", "pair", "--out", pair]) == 0
        assert main(["hom", pair, pair, "--cap-group", "128", "--out", str(hom)]) == 0
    return hom


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_failing_128_element_module_is_decided_within_48_mb(tensor4_hom, tmp_path):
    """The Hom of the Z/4 ``tensor`` free pair with one bracket entry
    changed fails MC3, MC4, MC5, MC6 and MC7a, and its full MC6 grid has
    ≈ 1.07e9 cells.  Under ``--cap-group 128`` it is decided within 48 MB
    on top of the interpreter."""
    proc = verify_under_budget(with_a_raised_bracket(tensor4_hom, tmp_path), 48,
                               "--cap-group", "128")
    assert proc.returncode == 1, proc.stderr
    fails = [line for line in proc.stdout.splitlines() if "FAIL" in line]
    assert fails[0] == "  FAIL MC3 at (1, 1): lhs=0 rhs=1"
    assert fails[-1] == "result: FAIL"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_running_out_of_memory_exits_three_without_a_traceback(tensor4_hom):
    """With 2 MB above the interpreter an allocation fails while the
    128-element Hom of the Z/4 ``tensor`` free pair is read and verified;
    that is a bound, not a crash."""
    proc = verify_under_budget(tensor4_hom, 2, "--cap-group", "128")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("bound exceeded: out of memory")
    assert "Traceback" not in proc.stderr


def test_a_group_over_the_cap_while_reading_exits_three(tensor4_hom, capsys):
    """A well-formed document whose carrier is larger than the group cap is
    refused for the bound, not as unparseable."""
    assert main(["verify", str(tensor4_hom)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "bound exceeded: group carrier has 128 elements, cap is 64\n"
    assert captured.out == ""


def test_a_ring_over_the_cap_while_reading_exits_three(tmp_path, capsys):
    pair = write_doc(tmp_path, "sym3.pair", free_cp_pair(build_example("sym", 3)))
    assert main(["verify", pair, "--cap-ring", "4"]) == 3
    assert capsys.readouterr().err == "bound exceeded: ring carrier has 9 elements, cap is 4\n"


def test_non_integer_table_entries_exit_two(tmp_path, capsys):
    docs = {}
    for kind in ("sym", "rnil"):
        path = str(tmp_path / f"{kind}2.pair")
        assert main(["example", kind, "2", "--emit", "pair", "--out", path]) == 0
        docs[kind] = json.loads(open(path).read())
    assert docs["sym"]["group"]["add"][0][1] == 1
    assert docs["rnil"]["square_ring"]["re"]["one"] == 1
    cases = [("sym", ("group", "add", 0), 1, entry) for entry in (1.5, True, "1")]
    cases.append(("rnil", ("square_ring", "re"), "one", True))
    for kind, where, key, value in cases:
        bad = json.loads(json.dumps(docs[kind]))
        node = bad
        for step in where:
            node = node[step]
        node[key] = value
        assert main(["verify", write(tmp_path, "bad.pair", json.dumps(bad))]) == 2, value


def test_in_process_calls_do_not_inherit_flags(tmp_path, capsys):
    path = str(tmp_path / "sym2.pair")
    assert main(["example", "sym", "2", "--emit", "pair", "--out", path]) == 0
    assert main(["verify", path, "--cap-ring", "8", "--cap-group", "8"]) == 0
    assert get_config() == Config(cap_group=8, cap_ring=8)
    assert main(["verify", path]) == 0
    assert get_config() == Config()


# ---------------------------------------------------------------------------
# hostile documents


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """The example documents the fuzzer mutates, and a file to write to."""
    sr = build_example("sym", 2)
    pair = free_cp_pair(sr)
    square = MapTable(pair, pair, sr.re.mul[np.arange(pair.nm), np.arange(pair.nm)])
    docs = [to_doc(obj) for obj in (sr, pair, regular_module(sr), square)]
    return docs, tmp_path_factory.mktemp("fuzz") / "doc.json"


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


_ODD_VALUES = [2**63, -1, 1.5, 1.0, True, None, "1", [], {}, [[]], *KINDS, "group"]


def _mutate(data, doc, seeds):
    """One random edit at one random place: a new value (type, range or
    kind), the value wrapped in a list, removed, or grown by a copy of its
    last entry (shape), or replaced by another whole document (nesting)."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["value", "wrap", "drop", "grow", "nest"]))
    if not path:
        return {} if op == "drop" else [doc] if op == "wrap" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key, node = path[-1], parent[path[-1]]
    if op == "value":
        parent[key] = data.draw(st.one_of(st.integers(-2, 66), st.sampled_from(_ODD_VALUES)))
    elif op == "wrap":
        parent[key] = [node]
    elif op == "drop":
        del parent[key]
    elif op == "grow" and isinstance(node, list) and node:
        node.append(json.loads(json.dumps(node[-1])))
    elif op == "nest":
        parent[key] = json.loads(json.dumps(data.draw(st.sampled_from(seeds))))
    return doc


@settings(max_examples=150)
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(fuzz_seeds, data):
    seeds, path = fuzz_seeds
    doc = json.loads(json.dumps(data.draw(st.sampled_from(seeds))))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc, seeds)
    path.write_text(json.dumps(doc))
    for argv in (["verify", path], ["quad", path], ["gr", path],
                 ["enum", path, path, "--limit", "10000"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        assert code in range(5), (argv[0], code)


# any JSON value, with the keys of the document kinds among its keys
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(KINDS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "square_ring", "re", "ree", "group", "add", "mul", "one",
                         "scal", "bracket", "aset", "dom", "cod", "table"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60)
@given(st.binary(max_size=64) | _JSON.map(lambda value: json.dumps(value).encode()))
def test_no_document_makes_main_raise(fuzz_seeds, content):
    _, path = fuzz_seeds
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(path)])
    assert code in range(5)


def test_every_command_writes_through_the_report():
    """No ``cmd_*`` prints or writes a stream of its own: each hands its
    report, its lines and the structure it emits to ``_report``."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 7
    for command in commands:
        calls = [node.func for node in ast.walk(command) if isinstance(node, ast.Call)]
        called = {getattr(func, "id", getattr(func, "attr", None)) for func in calls}
        streams = {node.attr for node in ast.walk(command)
                   if isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")}
        assert "_report" in called and not called & {"print", "write"} and not streams, \
            command.name
