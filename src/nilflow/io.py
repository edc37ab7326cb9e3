"""Problem ingestion (JSON or builtin fixtures) and result serialization.

Everything is text: JSON in, CSV and standalone SVG out.  The CSV layout is
the flat column scheme defined next to Trajectory, written with 17
significant digits so a read-back reproduces the floats exactly.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass

import numpy as np

from .config import MAX_PROBLEM_DIM
from .errors import ValidationError
from .flows import trajectory_from_columns
from .hodge import Metric
from .lie import KForm, LieBracket

__all__ = [
    "Problem",
    "builtin_problem",
    "problem_from_dict",
    "load_problem",
    "emit_trajectory_csv",
    "read_trajectory_csv",
    "emit_phase_svg",
]


@dataclass(frozen=True)
class Problem:
    """Validated left-invariant input data: bracket, metric, 3-form, 1-form."""

    name: str
    mu: LieBracket
    g: Metric
    H: KForm
    theta: KForm

    @property
    def dim(self):
        return self.mu.dim


_FIX_HEIS_H = re.compile(r"^heisenberg3\+H\(([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\)$")
_FIX_ABELIAN = re.compile(r"^abelian\((\d+)\)$")


def _heisenberg_problem(name, a):
    mu = LieBracket.from_entries(3, [(1, 2, 3, 1.0)])
    H = KForm(3, 3, np.array([float(a)]))
    return Problem(name=name, mu=mu, g=Metric.identity(3), H=H,
                   theta=KForm.zero(3, 1))


def builtin_problem(name):
    """The fixture for a builtin name, or None when the name is not one."""
    if name == "heisenberg3":
        return _heisenberg_problem(name, 0.0)
    m = _FIX_HEIS_H.match(name)
    if m:
        return _heisenberg_problem(name, float(m.group(1)))
    m = _FIX_ABELIAN.match(name)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= MAX_PROBLEM_DIM:
            raise ValidationError(
                f"abelian fixture dimension {n} outside 1..{MAX_PROBLEM_DIM}")
        return Problem(name=name, mu=LieBracket.zero(n), g=Metric.identity(n),
                       H=KForm.zero(n, 3), theta=KForm.zero(n, 1))
    return None


def _int_index(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _entry_rows(data, key, width):
    rows = data.get(key, [])
    if not isinstance(rows, list):
        raise ValidationError(f'"{key}" must be a list of entries')
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ValidationError(
                f'"{key}" entry {row!r} must have {width} elements '
                f"({width - 1} indices and a value)")
        idx = tuple(_int_index(x, f'"{key}" index') for x in row[:-1])
        out.append((idx, _number(row[-1], f'"{key}" value')))
    return out


def problem_from_dict(data, name="problem"):
    """Build a validated Problem from the JSON schema dict.

    Keys: dim (required), mu, H, theta, g or g_diag (exclusive), name.
    Indices are 1-based; mu/H entries are skew-completed, and giving the
    same slot twice with different values is an error.
    """
    if not isinstance(data, dict):
        raise ValidationError("top-level JSON value must be an object")
    allowed = {"dim", "mu", "H", "g", "g_diag", "theta", "name"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown keys in problem: {unknown}")
    if "dim" not in data:
        raise ValidationError('problem is missing required key "dim"')
    dim = _int_index(data["dim"], '"dim"')
    if not 1 <= dim <= MAX_PROBLEM_DIM:
        raise ValidationError(f'"dim" must be in 1..{MAX_PROBLEM_DIM}, got {dim}')
    if "name" in data:
        if not isinstance(data["name"], str):
            raise ValidationError('"name" must be a string')
        name = data["name"]

    mu_rows = [idx + (v,) for idx, v in _entry_rows(data, "mu", 4)]
    mu = LieBracket.from_entries(dim, mu_rows)

    if "g" in data and "g_diag" in data:
        raise ValidationError('give only one of "g" and "g_diag"')
    if "g" in data:
        rows = data["g"]
        if (not isinstance(rows, list) or len(rows) != dim
                or any(not isinstance(r, list) or len(r) != dim for r in rows)):
            raise ValidationError(f'"g" must be a {dim}x{dim} matrix')
        g = Metric(np.array([[_number(v, '"g" entry') for v in r] for r in rows]))
    elif "g_diag" in data:
        diag = data["g_diag"]
        if not isinstance(diag, list) or len(diag) != dim:
            raise ValidationError(f'"g_diag" must list {dim} diagonal entries')
        g = Metric.diagonal([_number(v, '"g_diag" entry') for v in diag])
    else:
        g = Metric.identity(dim)

    H = KForm.from_entries(dim, 3, _entry_rows(data, "H", 4))
    theta = KForm.from_entries(dim, 1, _entry_rows(data, "theta", 2))
    return Problem(name=name, mu=mu, g=g, H=H, theta=theta)


def load_problem(path):
    """Problem from a builtin fixture name or a JSON file path."""
    fixture = builtin_problem(str(path))
    if fixture is not None:
        return fixture
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON in {path}: {exc.msg} (line {exc.lineno}, "
            f"column {exc.colno})") from None
    return problem_from_dict(data, name=str(path))


# ---------------------------------------------------------------------------
# CSV

def emit_trajectory_csv(traj, path):
    """Write t plus the flat state columns, one row per accepted step."""
    labels = traj.column_labels()
    table = np.column_stack([traj.times, traj.rows]).tolist()  # Python floats format faster
    line = ",".join(["%.17g"] * (len(labels) + 1)) + "\r\n"  # csv.writer's row terminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + labels)
        fh.write("".join([line % tuple(row) for row in table]))


def read_trajectory_csv(path):
    """Rebuild a Trajectory from emit_trajectory_csv output.

    Step statistics are not stored in the file, so the reread trajectory
    reports accepted = rows - 1, rejected = 0.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ValidationError(f"{path} is not a trajectory CSV (no t header)")
    labels = rows[0][1:]
    times, mat = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValidationError(
                f"{path} line {lineno}: {len(row)} fields, expected {len(rows[0])}")
        try:
            vals = [float(x) for x in row]
        except ValueError:
            raise ValidationError(f"{path} line {lineno}: non-numeric field") from None
        times.append(vals[0])
        mat.append(vals[1:])
    if not times:
        raise ValidationError(f"{path} has no data rows")
    return trajectory_from_columns(times, labels, np.array(mat))


# ---------------------------------------------------------------------------
# SVG

_SVG_W, _SVG_H = 640, 480
_PLOT = (64.0, 20.0, 612.0, 428.0)  # x0, y0, x1, y1 of the data box


def _map_axis(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    if hi == lo:
        return np.full(vals.shape, (out_lo + out_hi) / 2.0)
    return out_lo + (vals - lo) / (hi - lo) * (out_hi - out_lo)


def _fmt_coord(v):
    return format(v, ".2f")


def _fmt_tick(v):
    return format(v, ".6g")


def emit_phase_svg(traj, x_col, y_col, path):
    """Standalone SVG polyline of column y_col against column x_col.

    Columns are the trajectory labels plus "t".  Output depends only on the
    trajectory data, so identical runs give byte-identical files.
    """
    labels = ["t"] + traj.column_labels()
    for col in (x_col, y_col):
        if col not in labels:
            raise ValidationError(
                f"unknown column {col!r}; available: {', '.join(labels)}")
    full = np.column_stack([traj.times, traj.rows])
    xs = full[:, labels.index(x_col)]
    ys = full[:, labels.index(y_col)]
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    px0, py0, px1, py1 = _PLOT
    sx = _map_axis(xs, x_lo, x_hi, px0, px1)
    sy = _map_axis(ys, y_lo, y_hi, py1, py0)  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<rect x="{_fmt_coord(px0)}" y="{_fmt_coord(py0)}" '
        f'width="{_fmt_coord(px1 - px0)}" height="{_fmt_coord(py1 - py0)}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    if len(sx) == 1:
        parts.append(
            f'<circle cx="{_fmt_coord(sx[0])}" cy="{_fmt_coord(sy[0])}" r="4" '
            f'fill="#1f77b4"/>')
    else:
        pts = " ".join(f"{_fmt_coord(a)},{_fmt_coord(b)}" for a, b in zip(sx, sy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
            f'stroke-width="1.5"/>')
    font = 'font-family="monospace" font-size="12" fill="#222222"'
    parts += [
        f'<text x="{_fmt_coord(px0)}" y="{_fmt_coord(py1 + 18)}" {font} '
        f'text-anchor="start">{_fmt_tick(x_lo)}</text>',
        f'<text x="{_fmt_coord(px1)}" y="{_fmt_coord(py1 + 18)}" {font} '
        f'text-anchor="end">{_fmt_tick(x_hi)}</text>',
        f'<text x="{_fmt_coord(px0 - 6)}" y="{_fmt_coord(py1 + 4)}" {font} '
        f'text-anchor="end">{_fmt_tick(y_lo)}</text>',
        f'<text x="{_fmt_coord(px0 - 6)}" y="{_fmt_coord(py0 + 10)}" {font} '
        f'text-anchor="end">{_fmt_tick(y_hi)}</text>',
        f'<text x="{_fmt_coord((px0 + px1) / 2)}" y="{_fmt_coord(_SVG_H - 14)}" '
        f'{font} text-anchor="middle">{x_col}</text>',
        f'<text x="16" y="{_fmt_coord((py0 + py1) / 2)}" {font} '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_fmt_coord((py0 + py1) / 2)})">{y_col}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
