from __future__ import annotations

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

from quadrica import (
    Config,
    CpModule,
    MapTable,
    build_example,
    dumps,
    free_cp_pair,
    get_config,
    regular_module,
    to_doc,
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
    assert main(["verify", bad]) == 2
    missing = str(tmp_path / "does-not-exist.doc")
    assert main(["verify", missing]) == 2
    pair = to_doc(free_cp_pair(build_example("sym", 2)))
    nested = dict(pair, square_ring=pair)  # a module where the ring belongs
    assert main(["verify", write(tmp_path, "nested.pair", json.dumps(nested))]) == 2


def test_carrier_axiom_failures_exit_one(tmp_path, capsys):
    doc = json.loads(dumps(to_doc(free_cp_pair(build_example("sym", 2)))))
    doc["group"]["add"][0] = [1, 0, 2, 3]  # rectangular, but 0 is no identity
    bad = write(tmp_path, "notagroup.doc", json.dumps(doc))
    assert main(["verify", bad]) == 1


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadrica.cli", "example", "sym", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "square_ring"


# Verifies a document with the address space of the process capped at what
# the interpreter holds after importing the CLI plus a budget in bytes.
_VERIFY_UNDER_BUDGET = """
import resource, sys
from quadrica.cli import main
kib = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:"))
limit = kib * 1024 + int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(["verify", sys.argv[1]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_64_element_hom_carrier_verifies_at_the_default_caps_within_48_mb():
    """The Hom of the Z/4 ``gamma`` free pair (64 maps, written by
    ``quadrica hom`` and stored as compact JSON): 64 elements is the
    default group cap.  Swept in full, its MC6 grid alone has
    64·64·16·16·4·16 ≈ 67M cells and needs more than 48 MB on top of the
    interpreter; on pairs of its 4 generators it has 262k."""
    doc = Path(__file__).parent / "data" / "gamma4_hom.cpmod"
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_UNDER_BUDGET, str(doc), str(48 << 20)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "result: PASS"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_running_out_of_memory_exits_three_without_a_traceback():
    """With 2 MB above the interpreter an allocation fails while the same
    document is read and verified; that is a bound, not a crash."""
    doc = Path(__file__).parent / "data" / "gamma4_hom.cpmod"
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_UNDER_BUDGET, str(doc), str(2 << 20)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("bound exceeded: out of memory")
    assert "Traceback" not in proc.stderr


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
    for command in ("verify", "quad"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in range(5), (command, code)
