"""Dense order-3 tensors: storage, unfolding/folding, reconstruction, norms, file formats.

Conventions used everywhere in this package:

* A tensor x[i, j, k] has shape (N, M, K).  The canonical flat layout (used by
  the text format) lists entries with the first index fastest, i.e.
  ``values.ravel(order="F")``.
* Unfoldings fix one index as the row and flatten the other two as columns,
  earlier index fastest (Kolda & Bader, SIAM Rev. 51, 2009):

  - mode 1: N x (M*K), column (j, k) at j + M*k
  - mode 2: M x (N*K), column (i, k) at i + N*k
  - mode 3: K x (N*M), column (i, j) at i + N*j

  UNFOLD_AXES holds this order; the contraction kernel and the core
  unfoldings of :mod:`btucker.decomp` read it too.
* Every artifact the package writes, and every input it parses, goes
  through this module: the T3/M2 text format, CSV (a header row,
  comma-separated, CRLF line ends as in RFC 4180) and strict JSON (no NaN or
  infinity).  Floats in text and CSV files carry 17 significant digits, an
  exact float64 round trip.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import FileFormatError

# Per mode: (row axis, fastest column axis, slowest column axis) of its unfolding.
UNFOLD_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}

_format_float = "{:.17g}".format


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


def _unfolding(a: np.ndarray, mode: int) -> np.ndarray:
    """Any 3-way array unfolded along `mode` in the column order of UNFOLD_AXES."""
    m, p, q = UNFOLD_AXES[mode]
    return a.transpose(m, q, p).reshape(a.shape[m], -1)


def _folding(g: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`_unfolding` for a 3-way array of `shape`."""
    m, p, q = UNFOLD_AXES[mode]
    return g.reshape(shape[m], shape[q], shape[p]).transpose(np.argsort((m, q, p)))


def _check_mode(mode: int) -> None:
    if mode not in UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def unfold(t: Tensor3, mode: int) -> np.ndarray:
    """Matricize along `mode` (1, 2 or 3) with the column order documented above."""
    _check_mode(mode)
    return _unfolding(t.values, mode)


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
    """||t|| from one dot product of the values, without a squared copy of them.

    Raises FloatingPointError where ||t||^2 overflows float64.
    """
    return math.sqrt(linalg.squared_norm(t.values))


# ---------------------------------------------------------------------------
# Portable text format.  "T3 N M K" / "M2 rows cols" header, then the values.
# ---------------------------------------------------------------------------

_VALUES_PER_LINE = 8
# Bounds the Python floats and the text alive at once.  The heap they leave behind
# stays under later peaks: blocks of 8192 lines left 2 MB more of it than 2048
# after a 10000 x 100 sinusoid run, at the same writing speed.
_LINES_PER_BLOCK = 2048


def _line_format(count: int) -> str:
    return " ".join(["%.17g"] * count) + "\n"


def _write_values(fh, flat: np.ndarray) -> None:
    """flat, 8 values a line, formatted by one `%` per block of lines.

    '%.17g' prints every float64 as _format_float does; tests/oracles.py
    keeps the per-value writer that the bytes are checked against.
    """
    line = _line_format(_VALUES_PER_LINE)
    block = _VALUES_PER_LINE * _LINES_PER_BLOCK
    for start in range(0, flat.size, block):
        values = tuple(flat[start : start + block].tolist())
        lines, rest = divmod(len(values), _VALUES_PER_LINE)
        fh.write((line * lines + (_line_format(rest) if rest else "")) % values)


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


def _parse_floats(body: str) -> np.ndarray:
    """The whitespace-separated decimal floats of body, parsed in C.

    Gives the values float() gives, but rejects what float() alone accepts:
    underscores ("1_0"), non-ASCII digits and non-ASCII spaces.  A bad token
    raises ValueError, or on numpy 1.x a DeprecationWarning, raised here as an
    error, in place of returning the values before it.
    """
    if body.isspace():  # np.fromstring reads a body of only whitespace as [-1.0]
        return np.empty(0)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "string or file could not be read", DeprecationWarning)
        return np.fromstring(body, dtype=np.float64, sep=" ")


def _read_text(path, tag: str, ndim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Header dims and flat values of a `tag` file; FileFormatError on any defect."""
    line, body = _read_utf8(path, lambda fh: (fh.readline(), fh.read()))
    header = line.split()
    if len(header) != ndim + 1 or header[0] != tag:
        raise FileFormatError(f"not a {tag} file: {path}")
    if not (line.isascii() and all(x.isdigit() for x in header[1:])):  # int() takes +1, 1_0, non-ASCII digits
        raise FileFormatError(f"bad header {tag} in {path}: dims must be ASCII digits")
    dims = tuple(int(x) for x in header[1:])
    try:
        flat = _parse_floats(body)
    except (ValueError, DeprecationWarning) as exc:
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


# ---------------------------------------------------------------------------
# CSV and JSON artifacts
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """A header row, then one line per row; float cells get 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_format_float(v) if isinstance(v, float) else v for v in row] for row in rows)


def write_json(doc, path, indent: int | None = None) -> None:
    """doc as strict JSON, then a newline; ValueError on NaN or infinity, before the file opens."""
    text = json.dumps(doc, indent=indent, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
