"""File formats for schedules, polynomials, roots, curves, levels and reports.

All writers are deterministic: no timestamps, fixed digit counts derived
from the stated precision, newline-terminated text.  Re-running a command
with identical inputs reproduces byte-identical files.

The text formats share one reader (``_text_data``): ``#`` header lines, whose
``key = value`` fields take the single token after ``=``, and data rows.

A region grid is a JSON header line and then one row of label digits 1-9
per grid row.  The writer emits the whole raster as one byte array and the
reader parses it the same way; the reader checks the rows against the
header's resolution.  numpy and the array types are imported by the
functions that use them, so the schedule, polynomial, roots and curve
formats load without numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import mpmath as mp

from .errors import InvalidInputError
from .exact import (
    ComplexRational,
    format_complex_rational,
    format_fraction,
    parse_complex_rational,
)
from .hyppoly import HypPolynomial, ParameterSchedule
from .rootfinding import RootCountingMeasure, checked_precision

if TYPE_CHECKING:
    import numpy as np

    from .potential import LevelCurve, RegionGrid


def decimal_digits(precision_bits: int) -> int:
    """Faithful decimal digit count for a binary precision."""
    return int(math.floor(precision_bits * math.log10(2))) + 2


def _mpf_str(x, digits: int) -> str:
    return mp.nstr(mp.mpf(x), digits, strip_zeros=True)


def _text_data(path):
    """(fields, rows) of a text data file: ``fields`` maps the key of each
    ``key = value`` on a ``#`` line to (the single token after ``=``, line
    number), a later line winning; ``rows`` lists (line number, line) for
    every other non-empty line."""
    fields, rows = {}, []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.startswith("#"):
            toks = line[1:].split()
            fields.update((toks[k - 1], (toks[k + 1], lineno))
                          for k in range(1, len(toks) - 1) if toks[k] == "=")
        elif line:
            rows.append((lineno, line))
    return fields, rows


def _field(path, fields, key, convert, *default):
    """Header field ``key`` converted, or ``default`` when given and the field
    is absent.  InvalidInputError names the file and line of a field that does
    not convert, or of the last field when a required one is absent."""
    if key not in fields:
        if default:
            return default[0]
        lineno = max((n for _, n in fields.values()), default=1)
        raise InvalidInputError(f"{path}, line {lineno}: malformed header, no field {key!r}")
    value, lineno = fields[key]
    try:
        return convert(value)
    except ValueError:
        raise InvalidInputError(
            f"{path}, line {lineno}: malformed header, {key} = {value!r}") from None


def _row(path, lineno: int, line: str, *types, sep=None) -> list:
    """The fields of data row ``lineno`` of ``path``, each converted by its
    entry of ``types``.

    A row with another number of fields, or with a field that does not
    convert, as a truncated or damaged file has, raises InvalidInputError
    naming the file and line.
    """
    fields = line.split(sep)
    if len(fields) == len(types):
        try:
            return [convert(f) for convert, f in zip(types, fields)]
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInputError(
        f"{path}, line {lineno}: malformed row, {len(types)} numbers expected: {line[:60]!r}")


# -- schedules ----------------------------------------------------------------


def schedule_to_json(schedule: ParameterSchedule) -> str:
    doc = {
        "A": schedule.A,
        "B": schedule.B,
        "alphas": [format_complex_rational(x) for x in schedule.alphas],
        "cs": [format_complex_rational(x) for x in schedule.cs],
        "betas": [format_complex_rational(x) for x in schedule.betas],
        "ds": [format_complex_rational(x) for x in schedule.ds],
    }
    return json.dumps(doc, indent=2) + "\n"


def schedule_from_json(text: str) -> ParameterSchedule:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"schedule file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("schedule file is not a JSON object")
    for key in ("A", "B", "alphas", "cs", "betas", "ds"):
        if key not in doc:
            raise InvalidInputError(f"schedule file lacks field {key!r}")
    for key in ("alphas", "cs", "betas", "ds"):
        if not (isinstance(doc[key], list) and all(isinstance(s, str) for s in doc[key])):
            raise InvalidInputError(f"schedule field {key!r} is not a list of strings")
    alphas, cs, betas, ds = ([parse_complex_rational(s) for s in doc[key]]
                             for key in ("alphas", "cs", "betas", "ds"))
    if len(alphas) != doc["A"] or len(betas) != doc["B"]:
        raise InvalidInputError("schedule lengths disagree with declared A, B")
    return ParameterSchedule(alphas, cs, betas, ds)


def write_schedule(path, schedule: ParameterSchedule) -> None:
    Path(path).write_text(schedule_to_json(schedule))


def read_schedule(path) -> ParameterSchedule:
    return schedule_from_json(Path(path).read_text())


def schedule_hash(schedule: ParameterSchedule) -> str:
    return "sha256:" + hashlib.sha256(schedule_to_json(schedule).encode()).hexdigest()[:16]


# -- polynomials --------------------------------------------------------------


def write_polynomial(path, p: HypPolynomial) -> None:
    """One row per coefficient: ``k re_num/re_den im_num/im_den``, exact."""
    lines = [
        "# polynomial export: k re im (exact rationals)",
        f"# n = {p.n} degree = {p.degree} schedule = {schedule_hash(p.schedule)}",
    ]
    for k, c in enumerate(p.coeffs):
        lines.append(f"{k} {format_fraction(c.re)} {format_fraction(c.im)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_polynomial_coeffs(path):
    """The exact coefficients back from a polynomial export."""
    coeffs = []
    for lineno, line in _text_data(path)[1]:
        k, re, im = _row(path, lineno, line, int, Fraction, Fraction)
        if k != len(coeffs):
            raise InvalidInputError(f"non-contiguous coefficient index in {path}")
        coeffs.append(ComplexRational(re, im))
    return coeffs


# -- root measures ------------------------------------------------------------


def write_roots(path, m: RootCountingMeasure, schedule: ParameterSchedule) -> None:
    """One line per root: ``re im residual_bound``, digits faithful to precision."""
    digits = decimal_digits(m.precision_bits)
    with mp.workprec(m.precision_bits):
        lines = [
            "# roots export: re im residual_bound",
            f"# n = {m.source_n} count = {m.n} precision_bits = {m.precision_bits} "
            f"schedule = {schedule_hash(schedule)}",
        ]
        for z, r in zip(m.roots, m.residual_bounds):
            lines.append(
                f"{_mpf_str(z.real, digits)} {_mpf_str(z.imag, digits)} {_mpf_str(r, 8)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def read_roots(path) -> RootCountingMeasure:
    """Rebuild a measure from a roots export (precision from the header).

    Clusters are recomputed from the stored roots; forward bounds are not
    stored, so they read back as infinite (unknown).  A file with another
    number of rows than its header's ``count``, as one cut on a row
    boundary has, or a ``precision_bits`` below 1 raises InvalidInputError.
    """
    fields, numbered = _text_data(path)
    precision = _field(path, fields, "precision_bits", lambda v: checked_precision(int(v)))
    count = _field(path, fields, "count", int)
    source_n = _field(path, fields, "n", int, 0)
    with mp.workprec(precision):
        rows = [_row(path, lineno, line, mp.mpf, mp.mpf, mp.mpf) for lineno, line in numbered]
        if len(rows) != count:
            raise InvalidInputError(f"roots file {path} has {len(rows)} rows, "
                                    f"its header says count {count}")
        zs = [mp.mpc(a, b) for a, b, _ in rows]
        rs = [r for _, _, r in rows]
    return RootCountingMeasure.from_roots(
        zs, precision, rs, [mp.inf] * len(zs), source_n or len(zs)
    )


# -- curves -------------------------------------------------------------------


def write_curve(path, curve) -> None:
    """Exact (j, k, a_jk) triples of the expanded bivariate polynomial."""
    lines = ["# curve export: j k re im (coefficient of z^j w^k, exact)"]
    for (j, k), a in sorted(curve.terms.items()):
        lines.append(f"{j} {k} {format_fraction(a.re)} {format_fraction(a.im)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_branch_points(path, bps, precision_bits: int = 128) -> None:
    digits = decimal_digits(precision_bits)
    lines = [f"# branch points: re im (degenerate = {bps.degenerate})"]
    with mp.workprec(precision_bits):
        for z in bps.points:
            lines.append(f"{_mpf_str(z.real, digits)} {_mpf_str(z.imag, digits)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_point_list(path) -> np.ndarray:
    import numpy as np

    return np.array([complex(*_row(path, lineno, line, float, float))
                     for lineno, line in _text_data(path)[1]])


# -- level curves -------------------------------------------------------------


def write_level_curve(path, curve: LevelCurve) -> None:
    """Ordered CSV polyline with per-point residuals plus a # header.

    The header lists the saddle locations as ``a+bi`` or ``a-bi``, joined by
    ``;``, or ``none``.
    """
    crit = ";".join(
        f"{c.location.real:.15g}{c.location.imag:+.15g}i" for c in curve.critical_points
    )
    lines = [
        f"# level curve pair = {curve.pair[0]},{curve.pair[1]} closed = {curve.closed} "
        f"hit_cut = {curve.hit_cut} criticals = {crit or 'none'}",
        "index,re,im,residual",
    ]
    for k, (z, r) in enumerate(zip(curve.points, curve.residuals)):
        lines.append(f"{k},{z.real:.17g},{z.imag:.17g},{r:.3e}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_level_curve(path) -> LevelCurve:
    """The curve of a level file, its saddles read back from the header.

    The file stores the saddle locations (at 15 significant digits) but not
    their outgoing directions, so each comes back as
    ``CriticalPoint(location, directions=())``.  An older file's ``+-`` before
    a negative imaginary part reads as ``-``.
    """
    import numpy as np

    from .potential import CriticalPoint, LevelCurve

    def parse_pair(value):
        i, j = value.split(",")
        return int(i), int(j)

    def parse_criticals(value):
        texts = [] if value == "none" else value.replace("+-", "-").split(";")
        return tuple(CriticalPoint(complex(t.replace("i", "j")), ()) for t in texts)

    fields, rows = _text_data(path)
    data = [_row(path, lineno, line, int, float, float, float, sep=",")
            for lineno, line in rows if not line.startswith("index")]
    return LevelCurve(
        pair=_field(path, fields, "pair", parse_pair),
        points=np.array([complex(re, im) for _, re, im, _ in data]),
        residuals=np.array([res for *_, res in data]),
        closed=_field(path, fields, "closed", "True".__eq__, False),
        critical_points=_field(path, fields, "criticals", parse_criticals, ()),
        hit_cut=_field(path, fields, "hit_cut", "True".__eq__, False),
    )


# -- region grids -------------------------------------------------------------


def write_region_grid(path, grid: RegionGrid) -> None:
    """JSON header line, then one raster line per row (label digits 1-9).

    The raster is built as one ``uint8`` array of digit codes with a newline
    column and written with ``tobytes``.  Labels outside 1-9 have no
    one-character digit, so they raise InvalidInputError and nothing is
    written.
    """
    import numpy as np

    labels = np.asarray(grid.labels)
    if labels.size and (labels.min() < 1 or labels.max() > 9):
        raise InvalidInputError(
            f"region labels {grid.labels_present()} do not fit the one-digit format (1-9)")
    header = {
        "box": list(grid.box),
        "resolution": grid.resolution,
        "legend": {str(i): ("H_1" if i == 1 else f"H~_{i}") for i in grid.labels_present()},
    }
    raster = np.full((labels.shape[0], labels.shape[1] + 1), ord("\n"), dtype=np.uint8)
    raster[:, :-1] = labels + ord("0")
    Path(path).write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + raster.tobytes())


def write_k_cells(path, grid: RegionGrid) -> None:
    pts = grid.k_points()
    lines = [f"# K cells: re im (cell_diagonal = {grid.cell_diagonal:.9g})"]
    for z in pts:
        lines.append(f"{z.real:.9g} {z.imag:.9g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_region_grid(path) -> RegionGrid:
    """The grid of a region file, its K mask recomputed from the labels.

    Raises InvalidInputError unless the header is a JSON object with a box
    of four numbers and a resolution, followed by exactly ``resolution``
    rows of ``resolution`` digits 1-9.
    """
    import numpy as np

    from .potential import RegionGrid

    head, _, body = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
        box, res = header["box"], header["resolution"]
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidInputError(f"region file {path} has no valid header: {exc}") from None
    if not (isinstance(box, list) and len(box) == 4
            and all(isinstance(v, (int, float)) for v in box)):
        raise InvalidInputError(f"region file {path}: box {box!r} is not four numbers")
    rows = body.splitlines()
    if not isinstance(res, int) or len(rows) != res:
        raise InvalidInputError(f"region file {path} has {len(rows)} rows, "
                                f"its header says resolution {res!r}")
    for iy, row in enumerate(rows):
        if len(row) != res:
            raise InvalidInputError(f"region file {path}: row {iy} has {len(row)} cells, "
                                    f"expected {res}")
    # uint8 arithmetic wraps every byte below "0" above 9
    labels = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(res, res) - ord("0")
    bad = (labels < 1) | (labels > 9)
    if bad.any():
        iy, ix = np.argwhere(bad)[0].tolist()
        raise InvalidInputError(f"region file {path}: cell ({iy}, {ix}) is not a digit 1-9")
    return RegionGrid.from_labels(box, res, labels.astype(np.int16))


# -- reports and manifests ----------------------------------------------------


def write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def file_hash(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def write_manifest(out_dir, command: str, config: dict, inputs: dict) -> None:
    """Record the effective parameters and content hashes of the inputs."""
    payload = {
        "command": command,
        "config": config,
        "input_hashes": {k: file_hash(v) for k, v in inputs.items() if Path(v).exists()},
    }
    write_report(Path(out_dir) / f"manifest_{command}.json", payload)
