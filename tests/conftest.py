import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcode.optim
import mcode.scoring
from mcode import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)


def make_coupled_dataset(n=200, m=4, d=3, seed=42, coupling=True):
    """Random dataset whose outputs depend on X, and on each other when
    coupling is set: the last output column copies the one before it."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, m))
    w = gen.normal(size=(m, d)) * 1.2
    p = 1.0 / (1.0 + np.exp(-(X @ w)))
    Y = (gen.random((n, d)) < p).astype(int)
    if coupling and d >= 2:
        Y[:, d - 1] = Y[:, d - 2]
    return Dataset(X, Y)


@pytest.fixture
def coupled_dataset():
    return make_coupled_dataset()


@pytest.fixture(params=[1, 7, 150])
def small_blocks(request, monkeypatch):
    """Shrink the kNN block budget and the screen's BLAS cut to the same
    few entries, and drop the block's row floor, so that a block holds
    one row or a few (rows per block = max(1, entries // N)) and its
    screen product runs in calls of a few columns."""
    monkeypatch.setattr(mcode.scoring, "_BLOCK_ENTRIES", request.param)
    monkeypatch.setattr(mcode.scoring, "_MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(mcode.optim, "_BLAS_SERIAL_SIZE", request.param)


@pytest.fixture
def split_walk(monkeypatch):
    """Split every kNN walk of two blocks or more into two halves, one
    per thread, whatever N and however many CPUs the process may use."""
    monkeypatch.setattr(mcode.scoring, "_SPLIT_ROWS", 0)
    monkeypatch.setattr(mcode.scoring, "_THREADS", 2)


def grid_with_duplicates(seed, n=40):
    """Points on a 4 x 4 integer grid, most of them repeated, so distance
    ties and zero distances fall on both sides of every block edge."""
    gen = np.random.default_rng(seed)
    return gen.integers(0, 4, size=(n, 2)).astype(np.float64)


def mixed_ties(seed, n=30):
    """grid_with_duplicates rows interleaved with Gaussian points far from
    the grid, so one block holds rows with more than k points at their
    k-th distance next to rows with no tie at all."""
    pts = np.empty((2 * n, 2))
    pts[0::2] = grid_with_duplicates(seed, n)
    pts[1::2] = np.random.default_rng(seed).normal(size=(n, 2)) + 50.0
    return pts


def tie_pattern(pts, k, exclude_self=False):
    """The kNN walk's tied flag of every row, one array per block."""
    index = mcode.scoring.NeighborIndex(pts)
    return index._walk(k, lambda *block: block[-1], exclude_self)


def traced_peak(func) -> int:
    """Peak bytes allocated, as tracemalloc sees them, while func runs."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_python(code: str, *flags, **environ) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, given the command-line flags and
    with environ added to this process's environment, where it imports
    the package these tests import and the helpers beside this file; its
    output as text."""
    paths = [str(Path(mcode.__file__).resolve().parent.parent),
             str(Path(__file__).resolve().parent)]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **environ)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
