"""Seeded data generators for the three benchmark experiments.

Randomness discipline
---------------------
All draws come from Philox (counter-based, 64-bit) streams keyed as
``key = [seed, (purpose << 32) | row]``, one substream per feature row plus
dedicated purposes for scalar vectors.  Any row can therefore be regenerated
independently, rows may be filled in parallel, and identical parameters give
bitwise-identical draws on any machine: the synthetic-block and sinusoid data
and the coupled maps' initial values and coupling matrix.

The coupled-map trajectory is not portable in that sense.  Each step sums
the coupling through a BLAS matrix-vector product (dgemv), whose summation
order depends on the BLAS build and the CPU, and the chaotic maps amplify a
last-bit difference: at N = 2000, seed 5001, a per-row ``np.sum`` in place of
``eps @ f`` moves the state by 1.1e-16 after step 1, 1.4e-10 after step 25
and 1.73 after step 100.  With one BLAS build the trajectory is the same at
1 and 2 BLAS threads.

Uniform draws are the generator's native ``random()`` (one 64-bit word per
double).  Normal variates are the inverse normal CDF of ``u + 2**-54``
(the half-ulp offset keeps the argument strictly inside (0, 1)); this fixed
transform keeps golden files portable across library versions.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DivergenceError, FileFormatError
from .tensor import _FLAGS, Tensor3, _adopted, _read_utf8, write_csv

DIVERGENCE_LIMIT = 1e6
# Threads that fill the coupling matrix, at most: `ensemble --threads N` runs N
# processes, each with its own fill threads.
MAX_FILL_THREADS = 4

# Purpose tags for substream keys (documented, stable).
_PURPOSE_BLOCK_ROW = 1
_PURPOSE_SIN_ROW = 2
# Retired: drew per-map nonlinearities a_i in an earlier coupled-map model;
# kept reserved so that no later purpose reuses the tag and its streams.
_PURPOSE_GCM_NONLINEARITY = 3
_PURPOSE_GCM_INITIAL = 4
_PURPOSE_GCM_COUPLING_ROW = 5


def _substream(seed: int, purpose: int, row: int = 0, gen: Generator | None = None) -> Generator:
    """The stream of one (seed, purpose, row); every draw of every generator comes from one.

    Given `gen`, a Philox generator, re-keys it in place and returns it with
    the same state as a new one: a generator's loop over rows re-keys one
    generator instead of building a Philox per row, whose constructor also
    spends most of its time on a SeedSequence that a keyed stream never uses.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    key = np.array([seed, (purpose << 32) | row], dtype=np.uint64)
    if gen is None:
        return Generator(Philox(key=key))
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": np.zeros(4, np.uint64), "key": key},
                               "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _normals(gen: Generator, n: int) -> np.ndarray:
    return ndtri(gen.random(n) + 2.0**-54)


@dataclass(frozen=True)
class SyntheticBlockParams:
    """Gaussian tensor with an N(mu, 1) block over the first N1 rows."""

    N: int = 1000
    M: int = 20
    K: int = 20
    N1: int = 10
    mu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.N1 <= self.N:
            raise ValueError(f"N1 must satisfy 0 <= N1 <= N, got N1={self.N1}, N={self.N}")
        if self.M % 2 or self.K % 2:
            raise ValueError(f"M and K must be even (block uses M/2, K/2), got {self.M}, {self.K}")
        if min(self.N, self.M, self.K) < 1:
            raise ValueError("dimensions must be positive")


def gen_synthetic_block(p: SyntheticBlockParams) -> tuple[Tensor3, np.ndarray]:
    """Rows i <= N1 carry an N(mu, 1) block over the first half of both sample axes."""
    x = np.empty((p.N, p.M, p.K))
    gen = None
    for i in range(p.N):
        gen = _substream(p.seed, _PURPOSE_BLOCK_ROW, i, gen)
        # row slab drawn in canonical order: j varies fastest
        x[i] = _normals(gen, p.M * p.K).reshape((p.M, p.K), order="F")
    x[: p.N1, : p.M // 2, : p.K // 2] += p.mu
    truth = np.zeros(p.N, dtype=bool)
    truth[: p.N1] = True
    return _adopted(x), truth


@dataclass(frozen=True)
class SinusoidParams:
    """Matrix whose first N1 rows are a fixed-period sinusoid with random phase."""

    N: int = 10000
    M: int = 100
    N1: int = 1000
    period: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.N1 <= self.N:
            raise ValueError(f"N1 must satisfy 0 <= N1 <= N, got N1={self.N1}, N={self.N}")
        if self.period == 0:
            raise ValueError("period must be non-zero")
        if min(self.N, self.M) < 1:
            raise ValueError("dimensions must be positive")


def gen_sinusoid(p: SinusoidParams) -> tuple[np.ndarray, np.ndarray]:
    """Row i < N1: sin(2*pi*j/period + eps_i), eps_i ~ N(0,1); other rows i.i.d. N(0,1).

    Column j corresponds to j = 1..M in the sinusoid argument.
    """
    x = np.empty((p.N, p.M))
    j = np.arange(1, p.M + 1, dtype=np.float64)
    gen = None
    for i in range(p.N):
        gen = _substream(p.seed, _PURPOSE_SIN_ROW, i, gen)
        if i < p.N1:
            eps = _normals(gen, 1)[0]
            x[i] = np.sin(2.0 * np.pi * j / p.period + eps)
        else:
            x[i] = _normals(gen, p.M)
    truth = np.zeros(p.N, dtype=bool)
    truth[: p.N1] = True
    return x, truth


@dataclass(frozen=True)
class GcmParams:
    """Globally coupled quadratic maps f(x, a) = 1 - a*x^2 (Kaneko, Physica D 41, 1990).

    Only the coupling strength is randomized: every map shares the
    nonlinearity `a`, and the coupling matrix is
    g[i, i'] = (1 - c) * delta[i, i'] + c * eps[i, i'] with eps uniform on
    [0, 1].  One step computes, for every map i,

        x_i <- g[i, i] * f_i + (1 / N) * sum_i' g[i, i'] * f_i',  f_i = f(x_i, a).

    The weights of row i sum to about 1 + c * (eps[i, i] - 1/2) + (1 - c) / N,
    not 1 as in Kaneko's uniform map, so small systems can leave [-1, 1] and
    escape (e.g. N = 8, c = 0.1, seed 18 within 25 steps); N >= 500 at the
    defaults stays bounded.
    """

    N: int = 10000
    steps: int = 100
    a: float = 1.75
    c: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if self.N < 1 or self.steps < 1:
            raise ValueError("N and steps must be positive")


def simulate_rcs_gcm(p: GcmParams) -> np.ndarray:
    """Simulate the coupled maps; returns the (N, steps) trajectory x[:, j], j = 1..steps.

    Initial values x_{i,0} are uniform on [0, 1] and are not included in the
    output.  Coupling entries come from one keyed substream per row, so the
    dense N x N matrix is regenerable row by row and is filled by up to
    MAX_FILL_THREADS threads; at the default N = 1e4 it is materialized
    once (~0.8 GB).  Raises DivergenceError when any |x| exceeds 1e6.
    """
    n = p.N
    x = _substream(p.seed, _PURPOSE_GCM_INITIAL).random(n)
    out = np.empty((n, p.steps))

    eps = _coupling_matrix(n, p.seed, _fill_threads())
    g_diag = (1.0 - p.c) + p.c * np.diag(eps)

    for step in range(p.steps):
        f = 1.0 - p.a * x * x
        # sum_i' g[i,i'] f_i' = (1-c) f_i + c * (eps @ f)
        x = g_diag * f + ((1.0 - p.c) * f + p.c * (eps @ f)) / n
        if np.max(np.abs(x)) > DIVERGENCE_LIMIT:
            raise DivergenceError(step + 1)
        out[:, step] = x
    return out


def _fill_threads() -> int:
    """One per CPU this process may run on, at most MAX_FILL_THREADS."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(usable or 1, MAX_FILL_THREADS))


def _coupling_matrix(n: int, seed: int, threads: int) -> np.ndarray:
    """The (n, n) uniform coupling entries, row i from its own keyed substream.

    `threads` threads fill contiguous blocks of rows, each re-keying its own
    generator, so the matrix is bitwise the same for any thread count.  Only
    private code runs in the threads: the benchmark's tracer is not thread-safe.
    """
    eps = np.empty((n, n))

    def fill(rows: range) -> None:
        gen = None
        for i in rows:
            gen = _substream(seed, _PURPOSE_GCM_COUPLING_ROW, i, gen)
            gen.random(out=eps[i])  # in place, and numpy releases the GIL while it fills

    blocks = [range(n * t // threads, n * (t + 1) // threads) for t in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, blocks))  # list() re-raises a thread's exception
    return eps


def write_truth_csv(mask: np.ndarray, path) -> None:
    """Ground-truth mask as a one-column CSV of 0/1 flags."""
    write_csv(path, ["truth"], ([int(v)] for v in np.asarray(mask, dtype=bool)))


def read_truth_csv(path) -> np.ndarray:
    def parse(fh) -> np.ndarray:
        reader = csv.reader(fh)
        if next(reader, None) != ["truth"]:
            raise FileFormatError(f"not a truth-mask CSV: {path}")
        return np.array([_FLAGS[row[0]] for row in reader], dtype=bool)

    try:
        return _read_utf8(path, parse)
    except (KeyError, ValueError, IndexError, csv.Error) as exc:
        raise FileFormatError(f"unparsable truth mask in {path}: {exc}") from exc
