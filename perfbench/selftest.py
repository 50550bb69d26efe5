"""Self-test of the benchmark's checks: a corrupted decision must count as a
failed operation.

    python3 perfbench/selftest.py

For each workload it runs one round and checks it as it is (no operation may
fail), then corrupts one output and checks again (at least one must fail):

* census: one entry of one batch-decider mask flipped;
* certify: one certificate with its verdict inverted;
* hom: one entry of one Hom-carrier table changed, at n = 2 and at n = 3.

Exits 0 when every corruption is caught and every untouched round passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SEED = 0


def flip_mask(ops):
    op = next(op for op in ops if len(op.out["mask"]) > 1)
    op.out["mask"] = op.out["mask"].copy()
    op.out["mask"][1] = not op.out["mask"][1]


def invert_verdict(ops):
    cert = next(op.out["cert"] for op in ops if op.kind == "pair:accepted")
    cert.passed = not cert.passed


def change_entry(n):
    def corrupt(ops):
        op = next(op for op in ops if op.kind == "hom" and op.out["doc"][1] == n)
        table = op.out["carrier"][1]
        table[1] = (table[1] + 1) % len(table)
    return corrupt


def run_case(name, wl, corrupt) -> bool:
    ops, _maps = wl.run_round(wl.setup(0), 0)
    wl.check(ops, 0)
    clean = sum(op.failed for op in ops)
    corrupt(ops)
    wl.check(ops, 0)
    caught = sum(op.failed for op in ops)
    good = clean == 0 and caught >= 1
    print(f"{name}: {len(ops)} operations, {clean} failed as built, "
          f"{caught} failed once corrupted -> {'ok' if good else 'NOT CAUGHT'}")
    return good


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    certify = workloads.Certify(SEED, out)
    certify.slices = 64  # a short round: about one accepted map per block
    hom2 = workloads.Hom(SEED, out)
    hom2.docs = (("sym", 2),)
    hom3 = workloads.Hom(SEED, out)
    hom3.docs = (("sym", 3),)
    cases = [
        ("census, one mask entry flipped", workloads.Census(SEED, out), flip_mask),
        ("certify, one verdict inverted", certify, invert_verdict),
        ("hom n=2, one carrier entry changed", hom2, change_entry(2)),
        ("hom n=3, one carrier entry changed", hom3, change_entry(3)),
    ]
    results = [run_case(*case) for case in cases]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
