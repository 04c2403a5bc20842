"""Trace rendering: ASCII frames and numbered SVG frames.

Active robots are drawn as arrows pointing along their last movement
direction (up for a robot that has not moved yet), settled robots as
diamonds ('o' in ASCII).
"""

from __future__ import annotations

import os

from .engine import A_STAY
from .grid import DIR_NAMES, Cell

_ARROWS = {"U": "^", "R": ">", "D": "v", "L": "<"}
_SVG_ROT = {"U": 0, "R": 90, "D": 180, "L": 270}


def heading(robot) -> str:
    """The letter of the last move among the ``robot.mem`` codes of its
    log applied so far, "U" before the first: stays and the settle are
    skipped."""
    log, i = robot.log, robot.mem
    while i and log[i - 1] >= A_STAY:
        i -= 1
    return DIR_NAMES[log[i - 1]] if i else "U"


def frame_steps(trace, every: int) -> list[int]:
    """Steps every, 2*every, ... plus the final step, in order."""
    if every < 1:
        raise ValueError("every must be >= 1")
    last = trace.ended().t
    steps = list(range(every, last + 1, every))
    if last % every:
        steps.append(last)
    return steps


def _frames(trace, steps):
    """Yield ``(t, robots)`` for each t of ``steps`` in ascending order,
    all from one forward pass of the trace's :meth:`states`."""
    steps = sorted(set(steps))
    last = trace.ended().t
    for t in steps:
        if not 1 <= t <= last:
            raise ValueError(f"step {t} not in [1, {last}]")
    yield from trace.states(steps)


def _ascii(region, robots) -> str:
    return region.to_ascii({rb.pos: _ARROWS[heading(rb)] if rb.active else "o" for rb in robots})


def ascii_frames(trace, steps):
    """Yield ``(t, frame)`` for each t of ``steps`` in ascending order,
    in one forward pass; see :func:`ascii_frame`."""
    for t, robots in _frames(trace, steps):
        yield t, _ascii(trace.region, robots)


def ascii_frame(trace, t: int) -> str:
    """One character per bounding-box cell at the end of step t: '#'
    wall, '.' empty, 'S' empty door, '^>v<' active robots pointing along
    their last move (up before the first), 'o' settled."""
    return next(ascii_frames(trace, [t]))[1]


_SVG_CELL = 20  # pixels per cell


def _svg_corner(region, cell: Cell) -> tuple[int, int]:
    # y axis points up in grid space, down in SVG space
    return (cell[0] - region.min_x) * _SVG_CELL, (region.max_y - cell[1]) * _SVG_CELL


def _svg_map(region) -> str:
    """The lines every frame of ``region`` starts with: the header, the
    background, the walls and the door."""
    s = _SVG_CELL
    w = region.max_x - region.min_x + 1
    h = region.max_y - region.min_y + 1
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w * s}" height="{h * s}" viewBox="0 0 {w * s} {h * s}">',
        f'<rect width="{w * s}" height="{h * s}" fill="white"/>',
    ]
    for y in range(region.max_y, region.min_y - 1, -1):
        for x in range(region.min_x, region.max_x + 1):
            if (x, y) not in region.cells:
                px, py = _svg_corner(region, (x, y))
                parts.append(f'<rect x="{px}" y="{py}" width="{s}" height="{s}" fill="#444"/>')
    dx, dy = _svg_corner(region, region.door)
    parts.append(
        f'<rect x="{dx}" y="{dy}" width="{s}" height="{s}" fill="none" '
        f'stroke="#2a7" stroke-width="2"/>'
    )
    return "\n".join(parts)


def _svg_frame(region, background: str, robots, t: int) -> str:
    s = _SVG_CELL
    parts = [background]
    for rb in robots:
        px, py = _svg_corner(region, rb.pos)
        cx, cy = px + s // 2, py + s // 2
        if not rb.active:
            pts = f"{cx},{py + 3} {px + s - 3},{cy} {cx},{py + s - 3} {px + 3},{cy}"
            parts.append(f'<polygon points="{pts}" fill="#c33"/>')
        else:
            pts = f"{cx},{py + 3} {px + s - 4},{py + s - 4} {px + 4},{py + s - 4}"
            rot = _SVG_ROT[heading(rb)]
            parts.append(
                f'<polygon points="{pts}" fill="#36c" '
                f'transform="rotate({rot} {cx} {cy})"/>'
            )
    parts.append(f'<text x="2" y="12" font-size="10" fill="#999">t={t}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_frames(trace, every: int, out_dir) -> list[str]:
    """Write frame_%06d.svg for steps every, 2*every, ... plus the final
    step, in one forward pass; returns the file paths written. The
    walls and the door are drawn once, for every frame."""
    steps = frame_steps(trace, every)
    os.makedirs(out_dir, exist_ok=True)
    region = trace.region
    background = _svg_map(region)
    written = []
    for t, robots in _frames(trace, steps):
        path = os.path.join(out_dir, f"frame_{t:06d}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_svg_frame(region, background, robots, t))
        written.append(path)
    return written
