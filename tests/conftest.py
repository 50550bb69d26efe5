from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import quadrica.verdict as engine
from quadrica import Config, SquareRing, build_example, build_near_ring, cyclic, set_config

# fixed examples and no example database: every run draws the same cases
# and saves none of them
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# every family/modulus combination with a lawful epsilon; 20 rings in all
RING_SPECS = (
    [(kind, n, None) for kind in ("classical", "rnil", "lambda", "tensor", "sym") for n in (2, 3, 4)]
    + [("gamma", 2, 0), ("gamma", 2, 1), ("gamma", 3, 0), ("gamma", 4, 0), ("gamma", 4, 2)]
)


def pytest_configure(config):
    """Hypothesis writes its cache of literals parsed from the local source
    (``constants/``) under its home directory, ``.hypothesis`` in the
    working directory by default, even with no example database, and its
    pytest plugin does so while collecting, before any fixture runs.  Give
    it a temporary home for the run, out of the checkout."""
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


@pytest.fixture(autouse=True)
def _default_config():
    """Tests poke at the global caps and witness policy; always start from
    defaults."""
    set_config(Config())
    yield
    set_config(Config())


@dataclass
class Tally:
    sweeps: int = 0
    cells: int = 0


@pytest.fixture
def swept(monkeypatch):
    """``with swept() as tally:`` counts the sweeps and cells of the block,
    where every sweep of the package is cut into blocks
    (``verdict._blocks``): one sweep per call, and candidates times grid
    cells per sweep."""

    @contextmanager
    def counting():
        tally = Tally()
        blocks = engine._blocks

        def spy(dims, grid, count):
            tally.sweeps += 1
            tally.cells += count * prod(dims)
            return blocks(dims, grid, count)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_blocks", spy)
            yield tally

    return counting


@pytest.fixture(scope="session")
def ring_zoo():
    return {spec: build_example(spec[0], spec[1], epsilon=spec[2]) for spec in RING_SPECS}


def triangular_square_ring() -> SquareRing:
    """A verified square ring whose underlying ring is NOT commutative:
    upper-triangular 2x2 matrices over Z/2 with everything above degree
    one trivial.  Used to exercise the commutativity gate."""
    mats = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    idx = {m: i for i, m in enumerate(mats)}
    add = np.array(
        [[idx[((a1 + a2) % 2, (b1 + b2) % 2, (c1 + c2) % 2)] for (a2, b2, c2) in mats] for (a1, b1, c1) in mats]
    )
    mul = np.array(
        [[idx[((a1 * a2) % 2, (a1 * b2 + b1 * c2) % 2, (c1 * c2) % 2)] for (a2, b2, c2) in mats] for (a1, b1, c1) in mats]
    )
    ring = build_near_ring(add, mul)
    trivial = cyclic(1)
    zero1 = np.zeros(1, dtype=np.int64)
    return SquareRing(ring, trivial, np.zeros((8, 8, 1, 8), dtype=np.int64), np.zeros(8, dtype=np.int64), zero1, zero1)
