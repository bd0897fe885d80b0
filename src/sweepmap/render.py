"""ASCII and SVG pictures of paths and tableaux.

Paths render with one character column per step: an up step of rise a
stacks a '/' cells, a down step of drop d stacks d '\\' cells.  SVG paths
are polylines through the lattice points of the rank sequence, all
coordinates integral so output is byte-stable.  A path that goes below
level 0 is refused, as ranks refuses it.
"""

from __future__ import annotations

from .paths import StepSequence, _heights, _ints
from .tableau import Tableau, TableauError

_UNIT = 20  # the side of a path's lattice square, in SVG pixels
_CELL = 34  # the side of a tableau box
_PAD = 10  # the margin around either picture


def path_ascii(steps: StepSequence) -> str:
    s = _ints(steps)
    heights = _heights(s)
    top = max(heights)
    width = len(s)
    grid = [[" "] * width for _ in range(max(top, 1))]
    for j, a in enumerate(s):
        h = heights[j]
        if a > 0:
            for y in range(h, h + a):
                grid[y][j] = "/"
        else:
            for y in range(h - 1, h + a - 1, -1):
                grid[y][j] = "\\"
    rows = ["".join(row).rstrip() for row in reversed(grid)]
    return "\n".join(rows)


def path_svg(steps: StepSequence) -> str:
    s = _ints(steps)
    heights = _heights(s)
    top = max(heights)
    width = len(s) * _UNIT + 2 * _PAD
    height = max(top, 1) * _UNIT + 2 * _PAD
    y0 = _PAD + top * _UNIT  # svg y of level zero
    points = " ".join(
        f"{_PAD + i * _UNIT},{y0 - h * _UNIT}" for i, h in enumerate(heights)
    )
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'  <line x1="{_PAD}" y1="{y0}" x2="{width - _PAD}" y2="{y0}" '
        'stroke="#999" stroke-width="1"/>',
        f'  <polyline points="{points}" fill="none" stroke="#000" '
        'stroke-width="2"/>',
        "</svg>",
    ]
    return "\n".join(lines)


def _check_ranks(t: Tableau, ranks: tuple[int, ...]) -> None:
    """Refuse an overlay that does not give one rank per entry."""
    if len(ranks) != t.size:
        raise TableauError(f"expected {t.size} ranks, one per entry, got {len(ranks)}")


def _labels(t: Tableau, ranks: tuple[int, ...] | None) -> list[list[str]]:
    """Each box's label, column by column: its entry, or entry:rank with ranks."""
    if ranks is not None:
        _check_ranks(t, ranks)
    return [
        [str(v) if ranks is None else f"{v}:{ranks[v - 1]}" for v in col] for col in t.columns
    ]


def _grid(cells: list[list[str]]) -> str:
    """Columns of labels hung from the top row, right-aligned, two spaces apart."""
    widths = [max(map(len, col)) for col in cells]
    rows = []
    for row in range(max(map(len, cells))):
        parts = [col[row] if row < len(col) else "" for col in cells]
        rows.append("  ".join(map(str.rjust, parts, widths)).rstrip())
    return "\n".join(rows)


def tableau_ascii(t: Tableau, ranks: tuple[int, ...] | None = None) -> str:
    return _grid(_labels(t, ranks))


def rank_ascii(t: Tableau, ranks: tuple[int, ...]) -> str:
    """The tableau's shape with each box showing its entry's rank."""
    _check_ranks(t, ranks)
    return _grid([[str(ranks[v - 1]) for v in col] for col in t.columns])


def tableau_svg(t: Tableau, ranks: tuple[int, ...] | None = None) -> str:
    labels = _labels(t, ranks)
    width = len(labels) * _CELL + 2 * _PAD
    height = max(map(len, labels)) * _CELL + 2 * _PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for c, col in enumerate(labels):
        x = _PAD + c * _CELL
        for row, label in enumerate(col):
            y = _PAD + row * _CELL
            parts.append(
                f'  <rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                'fill="none" stroke="#000"/>'
            )
            parts.append(
                f'  <text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" '
                f'text-anchor="middle" font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
