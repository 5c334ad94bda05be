"""Dense order-3 tensors: storage, unfolding/folding, reconstruction, norms, text I/O.

Conventions used everywhere in this package:

* A tensor x[i, j, k] has shape (N, M, K).  The canonical flat layout (used by
  the text format) lists entries with the first index fastest, i.e.
  ``values.ravel(order="F")``.
* Unfoldings fix one index as the row and flatten the other two as columns,
  earlier index fastest:

  - mode 1: N x (M*K), column (j, k) at j + M*k
  - mode 2: M x (N*K), column (i, k) at i + N*k
  - mode 3: K x (N*M), column (i, j) at i + N*j

  The contraction kernel in :mod:`btucker.decomp` orders its mode-2 and
  mode-3 columns the other way round, with the core unfolded to match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError

_UNFOLD_AXES = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense order-3 tensor.

    values must be a finite real array of shape (N, M, K); the data is copied
    and frozen so instances are safe to share between threads.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"expected a 3-way array, got ndim={v.ndim}")
        if min(v.shape) < 1:
            raise ValueError(f"all dimensions must be positive, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and np.array_equal(self.values, other.values)


def unfold(t: Tensor3, mode: int) -> np.ndarray:
    """Matricize along `mode` (1, 2 or 3) with the column order documented above."""
    if mode not in _UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    v = t.values
    rows = v.shape[mode - 1]
    return v.transpose(_UNFOLD_AXES[mode]).reshape(rows, -1)


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> Tensor3:
    """Exact inverse of :func:`unfold` for the given mode and target dims."""
    if mode not in _UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    m = np.asarray(m, dtype=np.float64)
    n, mm, k = dims
    shapes = {1: (n, k, mm), 2: (mm, k, n), 3: (k, mm, n)}
    rows = dims[mode - 1]
    if m.ndim != 2 or m.shape[0] != rows or m.size != n * mm * k:
        raise ValueError(f"matrix shape {m.shape} inconsistent with mode {mode} of dims {dims}")
    back = m.reshape(shapes[mode]).transpose(np.argsort(_UNFOLD_AXES[mode]))
    return Tensor3(back)


def reconstruct(model) -> Tensor3:
    """Assemble the tensor encoded by a Tucker model (core + one factor per mode).

    `model` needs attributes core (L1, L2, L3) and u1/u2/u3 with shapes
    (L1, N), (L2, M), (L3, K); entry (i, j, k) is the triple sum of
    core[a, b, c] * u1[a, i] * u2[b, j] * u3[c, k].
    """
    core, u1, u2, u3 = model.core, model.u1, model.u2, model.u3
    if core.shape != (u1.shape[0], u2.shape[0], u3.shape[0]):
        raise ValueError(
            f"core shape {core.shape} does not match factor ranks "
            f"({u1.shape[0]}, {u2.shape[0]}, {u3.shape[0]})"
        )
    return Tensor3(np.einsum("abc,ai,bj,ck->ijk", core, u1, u2, u3, optimize=True))


def frobenius_norm(t: Tensor3) -> float:
    return float(np.sqrt(np.sum(t.values * t.values)))


# ---------------------------------------------------------------------------
# Portable text format.  "T3 N M K" / "M2 rows cols" header, then values with
# 17 significant digits (exact float64 decimal round trip).
# ---------------------------------------------------------------------------

def _write_values(fh, flat: np.ndarray, per_line: int = 8) -> None:
    for start in range(0, flat.size, per_line):
        fh.write(" ".join(format(x, ".17g") for x in flat[start : start + per_line]))
        fh.write("\n")


def write_tensor(t: Tensor3, path) -> None:
    n, m, k = t.dims
    with open(path, "w") as fh:
        fh.write(f"T3 {n} {m} {k}\n")
        _write_values(fh, t.values.ravel(order="F"))


def _read_utf8(path, parse):
    """parse(fh) of a file opened as UTF-8 text, line ends untranslated.

    Every input file is read through here; FileFormatError unless it is UTF-8.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {path}: {exc}") from exc


def _read_text(path, tag: str, ndim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Header dims and flat values of a `tag` file; FileFormatError on any defect."""
    header, body = _read_utf8(path, lambda fh: (fh.readline().split(), fh.read()))
    if len(header) != ndim + 1 or header[0] != tag:
        raise FileFormatError(f"not a {tag} file: {path}")
    try:
        dims = tuple(int(x) for x in header[1:])
        flat = np.array(body.split(), dtype=np.float64)
    except ValueError as exc:
        raise FileFormatError(f"unparsable {tag} data in {path}: {exc}") from exc
    if min(dims) < 1 or flat.size != math.prod(dims):
        raise FileFormatError(f"bad header {tag} {dims} for {flat.size} values in {path}")
    if not np.all(np.isfinite(flat)):
        raise FileFormatError(f"non-finite entries in {path}")
    return dims, flat


def read_tensor(path) -> Tensor3:
    dims, flat = _read_text(path, "T3", 3)
    return Tensor3(flat.reshape(dims, order="F"))


def write_matrix(a: np.ndarray, path) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    with open(path, "w") as fh:
        fh.write(f"M2 {a.shape[0]} {a.shape[1]}\n")
        _write_values(fh, a.ravel(order="C"))


def read_matrix(path) -> np.ndarray:
    dims, flat = _read_text(path, "M2", 2)
    return flat.reshape(dims)


def data_kind(path) -> str:
    """Peek at a data file header; returns "tensor" or "matrix"."""
    tag = _read_utf8(path, lambda fh: fh.readline().split())
    if tag and tag[0] == "T3":
        return "tensor"
    if tag and tag[0] == "M2":
        return "matrix"
    raise FileFormatError(f"unrecognized data file header in {path}")
