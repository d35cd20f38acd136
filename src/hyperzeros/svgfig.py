"""Figure-grade SVG emission: zero scatter, level curves, branch points, regions.

Pure text generation, no plotting dependency; output is deterministic
(no timestamps, fixed formatting).  The region backdrop is one ``<rect>``
per run of equal labels along a grid row; the runs come from numpy
comparisons over the whole label array, and only the text is built per run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidInputError

CURVE_COLORS = ["#0050c8", "#c81e14", "#0a8c3c", "#aa28b4", "#c87800", "#14b4b4"]
REGION_COLORS = ["#dce8fa", "#fadcdc", "#dcf5e1", "#f3dcf8", "#faedd2", "#d7f3f3"]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class SvgFigure:
    """A fixed-size canvas mapping a complex-plane box to pixel coordinates.

    The height keeps the box's aspect ratio; a box so flat that the figure
    would be less than one pixel high raises InvalidInputError.
    """

    def __init__(self, box, width: int = 720):
        xmin, xmax, ymin, ymax = box
        self.box = box
        self.width = width
        self.height = int(round(width * (ymax - ymin) / (xmax - xmin)))
        if self.height < 1:
            raise InvalidInputError(f"box {box} is less than one pixel high at width {width}")
        self.sx = width / (xmax - xmin)
        self.sy = self.height / (ymax - ymin)
        self.parts = []

    def to_px(self, z: complex):
        x = (z.real - self.box[0]) * self.sx
        y = (self.box[3] - z.imag) * self.sy
        return x, y

    def add_region_raster(self, grid) -> None:
        """Region labels as a coarse colored backdrop (one rect per run of cells)."""
        res = grid.resolution
        cw = self.width / res
        ch = self.height / res
        labels = np.asarray(grid.labels)
        nrows, ncols = labels.shape
        starts = np.ones(labels.shape, dtype=bool)
        starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
        iys, ixs = np.nonzero(starts)
        # a run ends where the next one starts in the same row, else at the row's end
        same_row = np.append(iys[1:] == iys[:-1], False)
        ends = np.where(same_row, np.append(ixs[1:], 0), ncols)
        shades = ((labels[iys, ixs].astype(np.int64) - 1) % len(REGION_COLORS)).tolist()
        xs = [_fmt(k * cw) for k in range(ncols + 1)]
        ys = [_fmt(self.height - (iy + 1) * ch) for iy in range(nrows)]
        h = _fmt(ch)
        rows = [
            f'<rect x="{xs[ix]}" y="{ys[iy]}" width="{xs[end - ix]}" '
            f'height="{h}" fill="{REGION_COLORS[shade]}"/>'
            for iy, ix, end, shade in zip(iys.tolist(), ixs.tolist(), ends.tolist(), shades)
        ]
        self.parts.append('<g shape-rendering="crispEdges">' + "".join(rows) + "</g>")

    def add_polyline(self, points: np.ndarray, color: str, width: float = 1.6,
                     closed: bool = False) -> None:
        if len(points) < 2:
            return
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self.to_px(z) for z in points)
        )
        tag = "polygon" if closed else "polyline"
        self.parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def add_dots(self, points, color: str = "#111111", radius: float = 2.2) -> None:
        dots = []
        for z in points:
            x, y = self.to_px(z)
            dots.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" fill="{color}"/>')
        self.parts.append("<g>" + "".join(dots) + "</g>")

    def add_markers(self, points, color: str = "#c81e14", size: float = 5.0) -> None:
        """Emphasized diamond markers (branch points)."""
        marks = []
        for z in points:
            x, y = self.to_px(z)
            marks.append(
                f'<path d="M {_fmt(x)} {_fmt(y - size)} L {_fmt(x + size)} {_fmt(y)} '
                f'L {_fmt(x)} {_fmt(y + size)} L {_fmt(x - size)} {_fmt(y)} Z" '
                f'fill="{color}" stroke="#500000" stroke-width="0.8"/>'
            )
        self.parts.append("<g>" + "".join(marks) + "</g>")

    def add_singular_points(self) -> None:
        """The points 0 and 1, when inside the box."""
        marks = []
        for z in (0.0, 1.0):
            if not (self.box[0] <= z <= self.box[1] and self.box[2] <= 0 <= self.box[3]):
                continue
            x, y = self.to_px(complex(z, 0.0))
            marks.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.2" fill="#222222" '
                f'stroke="#ffffff" stroke-width="1.2"/>'
            )
        self.parts.append("<g>" + "".join(marks) + "</g>")

    def add_axes(self) -> None:
        segs = []
        if self.box[2] < 0 < self.box[3]:
            _, y0 = self.to_px(0j)
            segs.append(
                f'<line x1="0" y1="{_fmt(y0)}" x2="{self.width}" y2="{_fmt(y0)}" '
                f'stroke="#999999" stroke-width="0.6"/>'
            )
        if self.box[0] < 0 < self.box[1]:
            x0, _ = self.to_px(0j)
            segs.append(
                f'<line x1="{_fmt(x0)}" y1="0" x2="{_fmt(x0)}" y2="{self.height}" '
                f'stroke="#999999" stroke-width="0.6"/>'
            )
        self.parts.append("".join(segs))

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n{body}\n</svg>\n'
        )

    def write(self, path) -> None:
        Path(path).write_text(self.render())


def compose_figure(path, box, roots=None, curves=None, branch_pts=None,
                   grid=None, width: int = 720) -> None:
    """Layer the standard figure: regions (optional), curves, zeros, markers."""
    fig = SvgFigure(box, width)
    if grid is not None:
        fig.add_region_raster(grid)
    fig.add_axes()
    for k, curve in enumerate(curves or []):
        fig.add_polyline(
            curve.points, CURVE_COLORS[k % len(CURVE_COLORS)], closed=curve.closed
        )
    if roots is not None and len(roots):
        fig.add_dots(roots)
    if branch_pts is not None and len(branch_pts):
        fig.add_markers(branch_pts)
    fig.add_singular_points()
    fig.write(path)
