import hashlib
from pathlib import Path

import pytest

from dispersim.engine import run
from dispersim.envgen import random_simply_connected, rect
from dispersim.render import ascii_frame, ascii_frames, frame_steps, svg_frames
from dispersim.strategies import make_strategy

from oracles import recorded


def test_first_frame_shows_fresh_spawn():
    r = rect(1, 5, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    frame = ascii_frame(trace, 1)
    assert frame.splitlines()[-1] == "^"  # robot 1 just emerged at the door


def test_two_cell_corridor_second_step():
    r = rect(2, 1, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    assert ascii_frame(trace, 2) == "S>"


def test_final_frame_of_covered_run_has_no_floor():
    r = rect(4, 3, (1, 1))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    frame = ascii_frame(trace, m.makespan)
    assert "." not in frame and "S" not in frame
    # the robot that emerged on the final step never settles
    assert frame.count("o") == len(r.cells) - 1
    assert frame.count("^") == 1


def test_frame_dimensions_and_glyph_count():
    r = rect(5, 4, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    for t in (1, 5, 9):
        frame = ascii_frame(trace, t)
        lines = frame.splitlines()
        assert len(lines) == 4 and all(len(l) == 5 for l in lines)
        live = sum(frame.count(ch) for ch in "^>v<o")
        spawned = sum(1 for when in recorded(trace)[0] if when <= t)
        assert live == spawned


def test_frame_out_of_range():
    """A frame step outside the run is a bad argument, as ``every < 1``
    is: both raise ValueError."""
    r = rect(2, 1, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    last = trace.outcome.t
    with pytest.raises(ValueError, match=rf"step 0 not in \[1, {last}\]"):
        ascii_frame(trace, 0)
    with pytest.raises(ValueError, match=rf"step {last + 1} not in \[1, {last}\]"):
        next(ascii_frames(trace, [1, last + 1]))
    with pytest.raises(ValueError, match="every must be >= 1"):
        frame_steps(trace, 0)


def test_svg_frames_count_and_determinism(tmp_path):
    r = rect(1, 5, (0, 0))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    out1 = tmp_path / "a"
    files = svg_frames(trace, 1, out1)
    assert len(files) == 9  # one per step of the makespan-9 run
    assert files[0].endswith("frame_000001.svg")
    out2 = tmp_path / "b"
    files2 = svg_frames(trace, 1, out2)
    for f1, f2 in zip(files, files2):
        assert Path(f1).read_bytes().replace(b"/a/", b"/b/") == Path(f2).read_bytes().replace(b"/a/", b"/b/")


def test_svg_single_final_frame():
    import tempfile

    r = rect(3, 3, (0, 0))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    with tempfile.TemporaryDirectory() as d:
        files = svg_frames(trace, m.makespan, d)
        assert len(files) == 1
        body = Path(files[0]).read_text()
        assert body.startswith("<?xml")
        assert body.count("polygon") == 9  # nine settled diamonds


def test_fcdfs_frames_pinned(suite, tmp_path):
    # Every ASCII frame of fcdfs on 20 suite regions and on a region with
    # negative coordinates. The digest was computed when render had a map
    # writer of its own; Region.to_ascii with an overlay must draw the
    # same characters. The SVG files of every 7th step and the last, named
    # and in order, were pinned when each frame drew its own walls and door.
    regions = suite[::10] + [random_simply_connected(40, seed=10)]
    assert len(regions) == 21 and min(regions[-1].min_x, regions[-1].min_y) < 0
    h = hashlib.sha256()
    svg = hashlib.sha256()
    for i, r in enumerate(regions):
        trace, m = run(r, make_strategy("fcdfs", r, 0))
        for t, frame in ascii_frames(trace, range(1, m.makespan + 1)):
            h.update(f"{t}\n{frame}\n".encode())
        for f in svg_frames(trace, 7, tmp_path / str(i)):
            svg.update(Path(f).name.encode() + b"\n" + Path(f).read_bytes())
    assert h.hexdigest() == "11fcf34aec92610c707dba190a4ca5ba18dace61dac96ee5d5f5d133c0080673"
    assert svg.hexdigest() == "9112b253e7408617441ce4643ad48d74bd815e330687d1bffbdaf01b5d698c4e"
