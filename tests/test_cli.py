import csv
import json
import pathlib
import re
import shlex

import pytest

from dispersim import cli
from dispersim.cli import build_parser, main
from dispersim.envgen import g_k, rect
from dispersim.strategies import STRATEGIES
from dispersim.strategies.base import Strategy


@pytest.fixture
def corridor_map(tmp_path):
    path = tmp_path / "corridor.map"
    path.write_text(rect(1, 5, (0, 0)).to_ascii() + "\n")
    return str(path)


@pytest.fixture
def ring_map(tmp_path):
    path = tmp_path / "ring.map"
    path.write_text("...\n.#.\nS..\n")
    return str(path)


def test_gen_rect(tmp_path, capsys):
    out = tmp_path / "grid.map"
    code = main(["gen", "--shape", "rect", "--w", "30", "--h", "30",
                 "--door", "13,13", "-o", str(out)])
    assert code == 0
    assert "V=900 simply_connected=true" in capsys.readouterr().out
    assert out.read_text().count("S") == 1


def test_gen_gk_not_simply_connected(capsys):
    code = main(["gen", "--shape", "gk", "--r", "1", "--k", "5"])
    assert code == 0
    assert "simply_connected=false" in capsys.readouterr().out


def test_gen_random(capsys):
    code = main(["gen", "--shape", "random", "--cells", "40", "--seed", "3"])
    assert code == 0
    assert "V=40 simply_connected=true" in capsys.readouterr().out


def test_gen_bad_arguments():
    assert main(["gen", "--shape", "rect", "--w", "0", "--h", "3"]) == 2
    assert main(["gen", "--shape", "rect", "--h", "3"]) == 2
    assert main(["gen", "--shape", "gk", "--r", "1", "--k", "99"]) == 2


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        (["run", "--strategy", "fcdfs"], "S..\n....\n", 1, "line 1 has length 4, expected 3"),
        (["run", "--strategy", "fcdfs"], "S.x\n", 1, "bad character 'x' at row 0, col 2"),
        (["run", "--strategy", "fcdfs"], "S.S\n", 1, "second door at (2, 0)"),
        (["run", "--strategy", "fcdfs"], "...\n", 1, "map has no 'S' cell"),
        (["run", "--strategy", "fcdfs"], "", 1, "empty map"),
        (["run", "--strategy", "fcdfs"], "S#.\n", 1, "1 cells unreachable from the door"),
        (["gen", "--shape", "rect", "--w", "3", "--h", "3", "--door", "5,5"], None, 2, "door (5, 5) outside 3x3 rectangle"),
    ],
    ids=["ragged", "bad-character", "two-doors", "no-door", "empty", "cut-off", "door-outside"],
)
def test_map_and_generator_errors_keep_their_exit_and_message(tmp_path, capsys, argv, text, code, message):
    """Every way a map or a generator's door can be wrong exits with its
    code and one ``error:`` line naming the fault."""
    if text is not None:
        env = tmp_path / "bad.map"
        env.write_text(text)
        argv = argv + ["--env", str(env)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_run_covered_exit_zero(corridor_map, capsys):
    code = main(["run", "--env", corridor_map, "--strategy", "fcdfs"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("env,door_x")
    assert ",covered,9,10,4," in out[1]


def test_run_quotes_an_env_path_with_a_comma(tmp_path, capsys):
    env = tmp_path / "a,b.map"
    env.write_text(rect(1, 5, (0, 0)).to_ascii() + "\n")
    assert main(["run", "--env", str(env), "--strategy", "fcdfs"]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(row) == len(header) == 14
    assert row[0] == str(env)
    assert row[header.index("makespan")] == "9"


def test_run_writes_trace(corridor_map, tmp_path):
    trace_file = tmp_path / "t.json"
    code = main(["run", "--env", corridor_map, "--strategy", "fcdfs5",
                 "--trace", str(trace_file)])
    assert code == 0
    data = json.loads(trace_file.read_text())
    assert data["strategy"] == "fcdfs5"
    assert data["outcome"]["kind"] == "covered"


def test_run_deadlock_exit_three(ring_map):
    assert main(["run", "--env", ring_map, "--strategy", "fcdfs"]) == 3


def test_run_names_a_deadlocks_cycle_on_stderr(tmp_path, capsys):
    """``run`` prints a deadlock's message on stderr, as it prints a
    collision's: the step its configuration first appeared and the
    period. Its CSV row is still printed."""
    path = tmp_path / "square.map"
    path.write_text(rect(12, 12, (5, 5)).to_ascii() + "\n")
    assert main(["run", "--env", str(path), "--strategy", "bflf", "--seed", "69"]) == 3
    out, err = capsys.readouterr()
    assert err == "deadlock: t=71: the configuration of step 69 repeats (period 2)\n"
    assert ",deadlock,,305,26,239,26," in out


def test_run_step_limit_exit_four(corridor_map):
    code = main(["run", "--env", corridor_map, "--strategy", "fcdfs",
                 "--max-steps", "2"])
    assert code == 4


def test_run_unknown_strategy_exit_two(corridor_map):
    assert main(["run", "--env", corridor_map, "--strategy", "nosuch"]) == 2


def test_run_missing_env_exit_one():
    assert main(["run", "--env", "/nonexistent.map", "--strategy", "fcdfs"]) == 1


@pytest.mark.parametrize("command", [
    ["run", "--strategy", "fcdfs"],
    ["compare", "--strategies", "fcdfs"],
    ["oracle"],
])
def test_a_map_that_is_not_utf8_is_an_io_error(tmp_path, capsys, command):
    env = tmp_path / "latin1.map"
    env.write_bytes(b"S.\n\xff.\n")
    assert main([*command, "--env", str(env)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {env}: 'utf-8' codec can't decode byte 0xff")


def test_run_check_flag(corridor_map):
    assert main(["run", "--env", corridor_map, "--strategy", "fcdfs", "--check"]) == 0


@pytest.mark.parametrize("name", ["left-hand", "dflf"])
def test_run_check_without_declared_invariants_exit_two(corridor_map, capsys, name):
    assert main(["run", "--env", corridor_map, "--strategy", name, "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before the run
    assert f"{name} declares no runtime invariants to check" in err


def test_compare_table_and_csv(tmp_path, capsys):
    env = tmp_path / "sq.map"
    env.write_text(rect(8, 8, (0, 0)).to_ascii() + "\n")
    csv_out = tmp_path / "rows.csv"
    code = main(["compare", "--env", str(env), "--strategies", "fcdfs,dflf",
                 "--reps", "2", "--csv", str(csv_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fcdfs" in out and "dflf" in out
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 strategies x 2 reps
    assert lines[0].startswith("env,door_x")


class _Broken(Strategy):
    name = "broken"

    def fresh_memory(self):
        return None

    def decide(self, view, mem):
        raise RuntimeError("stuck at (0, 1), no way out")


def test_compare_csv_quotes_error_text(corridor_map, tmp_path, monkeypatch):
    monkeypatch.setitem(STRATEGIES, "broken", _Broken)
    csv_out = tmp_path / "rows.csv"
    code = main(["compare", "--env", corridor_map, "--strategies", "fcdfs,broken",
                 "--reps", "2", "--csv", str(csv_out)])
    assert code == 0
    text = csv_out.read_text()
    rows = list(csv.reader(text.splitlines()))
    assert len(rows) == 5
    assert all(len(row) == 14 for row in rows)
    assert rows[3][4:7] == ["broken", "0", "error:RuntimeError: stuck at (0, 1), no way out"]
    assert rows[3][7:] == [""] * 7
    # Successful rows are written exactly as `run` prints them.
    assert text.splitlines()[1] == f"{corridor_map},0,0,5,fcdfs,0,covered,9,10,4,10,4,10,true"


def test_readme_cli_examples_parse(tmp_path, monkeypatch, capsys):
    """README's ``dispersim`` lines parse, and run in order in an empty
    directory, each exiting 0."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    examples = [
        line for line in readme.read_text().splitlines() if line.startswith("dispersim ")
    ]
    assert len(examples) >= 6
    assert sum(line.startswith("dispersim render ") for line in examples) == 2
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])
    monkeypatch.chdir(tmp_path)
    for line in examples:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


def test_readme_library_example_runs(capsys):
    """README's Library block runs as written and prints the 30x30
    run's outcome, makespan and total travel."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "covered 1799 13620\n"


def test_compare_unknown_strategy(tmp_path):
    env = tmp_path / "sq.map"
    env.write_text(rect(3, 3, (0, 0)).to_ascii() + "\n")
    assert main(["compare", "--env", str(env), "--strategies", "fcdfs,bogus"]) == 2


def test_compare_without_a_strategy_name_is_a_usage_error(corridor_map, capsys):
    assert main(["compare", "--env", corridor_map, "--strategies", ","]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # rejected before any run


def test_compare_runs_a_repeated_name_once(corridor_map, capsys):
    code = main(["compare", "--env", corridor_map, "--strategies", "fcdfs,dflf,fcdfs",
                 "--reps", "2"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [["fcdfs", "2"], ["dflf", "2"]]


def test_compare_counts_deadlocked_and_failed_runs(ring_map, tmp_path, capsys, monkeypatch):
    """No run leaves the table silently: a collided run counts in
    ``runs`` and in its own column, a deadlocked run is marked, and a
    run that raised counts as failed, and only there."""
    env = tmp_path / "collide.map"
    env.write_text("#...\n#.#.\nS...\n")
    argv = ["compare", "--env", str(env), "--strategies", "fcdfs,left-hand,bflf", "--reps", "2"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["strategy", "runs", "deadlock", "limit", "collision", "failed", "total", "(max)"]
    assert [row.split() for row in rows] == [
        ["fcdfs", "2", "0", "0", "2", "0", "20", "(8)"],
        ["left-hand", "2", "0", "0", "2", "0", "20", "(8)"],
        ["bflf", "2", "0", "0", "0", "0", "30", "(7)"],
    ]
    assert main(["compare", "--env", ring_map, "--strategies", "fcdfs", "--reps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:6] for row in rows] == [["fcdfs", "2", "2", "0", "0", "0"]]
    monkeypatch.setitem(STRATEGIES, "broken", _Broken)
    assert main(["compare", "--env", ring_map, "--strategies", "broken", "--reps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split() for row in rows] == [["broken", "0", "0", "0", "0", "2", "-"]]


def test_compare_counts_runs_that_hit_the_step_limit(tmp_path, capsys):
    """A run cut by --max-steps, which `run` reports with exit 4, has
    its own column and does not pass for a covered run."""
    env = tmp_path / "collide.map"
    env.write_text("#...\n#.#.\nS...\n")
    assert main(["run", "--env", str(env), "--strategy", "dflf", "--max-steps", "5"]) == 4
    capsys.readouterr()
    argv = ["compare", "--env", str(env), "--strategies", "fcdfs5,dflf,bflf", "--max-steps", "5"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["strategy", "runs", "deadlock", "limit", "collision", "failed", "total", "(max)"]
    assert [row.split() for row in rows] == [
        ["fcdfs5", "1", "0", "1", "0", "0", "6", "(4)"],
        ["dflf", "1", "0", "1", "0", "0", "6", "(4)"],
        ["bflf", "1", "0", "1", "0", "0", "4", "(2)"],
    ]


def test_compare_header_lines_up_with_the_rows(corridor_map, capsys):
    """Each count ends in the column its header word ends in, also when
    every strategy name is shorter than the word "strategy"."""
    argv = ["compare", "--env", corridor_map, "--strategies", "fcdfs,dflf,bflf", "--reps", "2"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()

    def ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)][1:6]

    assert header.split()[1:6] == ["runs", "deadlock", "limit", "collision", "failed"]
    assert len(rows) == 3
    for row in rows:
        assert ends(row) == ends(header), (header, row)


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--shape", "rect", "--w", "2", "--h", "2", "-o", "{missing}/grid.map"],
        ["run", "--env", "{env}", "--strategy", "fcdfs", "--trace", "{missing}/t.json"],
        ["compare", "--env", "{env}", "--strategies", "fcdfs", "--csv", "{missing}/rows.csv"],
    ],
    ids=["gen", "run", "compare"],
)
def test_write_into_missing_directory_is_an_io_error(corridor_map, tmp_path, capsys, args):
    missing = tmp_path / "no" / "such" / "dir"
    argv = [a.format(missing=missing, env=corridor_map) for a in args]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_run_into_missing_directory_prints_nothing(corridor_map, tmp_path, capsys):
    trace = tmp_path / "no" / "such" / "dir" / "t.json"
    assert main(["run", "--env", corridor_map, "--strategy", "fcdfs", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_compare_opens_its_csv_before_any_run(corridor_map, tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("compare ran before opening its --csv file")

    monkeypatch.setattr(cli, "compare_runs", no_runs)
    csv_path = tmp_path / "no" / "such" / "dir" / "rows.csv"
    argv = ["compare", "--env", corridor_map, "--strategies", "fcdfs", "--csv", str(csv_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_invariant_violation_writes_no_trace(tmp_path, capsys):
    env = tmp_path / "gk.map"
    env.write_text(g_k(1, 5).to_ascii() + "\n")
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for trace in (new, old):
        argv = ["run", "--env", str(env), "--strategy", "fcdfs", "--check", "--trace", str(trace)]
        assert main(argv) == 5
    assert "invariant violation" in capsys.readouterr().err
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_collision_exits_six(tmp_path, capsys):
    """A collision is how a run ends, like a deadlock: it has its own
    exit code and stderr line, and the run still prints its CSV row and
    writes a trace that ``render`` reads back, one frame per step done."""
    env = tmp_path / "collide.map"
    env.write_text("#...\n#.#.\nS...\n")
    trace = tmp_path / "t.json"
    argv = ["run", "--env", str(env), "--strategy", "fcdfs", "--trace", str(trace)]
    assert main(argv) == 6
    out, err = capsys.readouterr()
    assert err == "collision: t=10: robots 1 and 5 both target (1, 0)\n"
    header, row = csv.reader(out.splitlines())
    assert header[6:] == ["outcome", "makespan", "total_travel", "max_travel", "total_moves", "max_moves",
                          "optimum", "optimal"]
    assert row == [str(env), "0", "0", "9", "fcdfs", "0", "collision", "", "20", "8", "20", "8", "24", "false"]
    assert main(["render", "--trace", str(trace), "--every", "1"]) == 0
    frames = capsys.readouterr().out
    assert re.findall(r"^t=(\d+)$", frames, re.M) == [str(t) for t in range(1, 10)]


def test_oracle_output(tmp_path, capsys):
    env = tmp_path / "grid.map"
    env.write_text(rect(30, 30, (13, 13)).to_ascii() + "\n")
    assert main(["oracle", "--env", str(env)]) == 0
    out = capsys.readouterr().out
    assert "sum_distances=13620" in out
    assert "max_distance=32" in out
    assert "simply_connected=true" in out


def test_oracle_l_tromino(tmp_path, capsys):
    env = tmp_path / "l.map"
    env.write_text("S#\n..\n")
    assert main(["oracle", "--env", str(env)]) == 0
    out = capsys.readouterr().out
    assert "corners=2" in out
    assert "halls=1" in out
    assert "hall_tree_components=2" in out


def test_oracle_staircase_of_halls(tmp_path, capsys):
    env = tmp_path / "stair.map"
    env.write_text("..#\n#S.\n##.\n")
    assert main(["oracle", "--env", str(env)]) == 0
    out = capsys.readouterr().out
    assert "halls=3" in out
    assert "hall_tree_components=3" in out


def test_oracle_median_needs_simple_connectivity(tmp_path, capsys):
    env = tmp_path / "gk.map"
    env.write_text(g_k(1, 5).to_ascii() + "\n")
    assert main(["oracle", "--env", str(env)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "simply_connected=false" in out
    assert "hall_tree_components=n/a" in out
    assert "geometric_median=n/a" in out


def test_render_ascii_and_svg(corridor_map, tmp_path, capsys):
    trace_file = tmp_path / "t.json"
    main(["run", "--env", corridor_map, "--strategy", "fcdfs",
          "--trace", str(trace_file)])
    capsys.readouterr()
    assert main(["render", "--trace", str(trace_file), "--every", "4"]) == 0
    out = capsys.readouterr().out
    assert "t=4" in out and "t=8" in out and "t=9" in out
    svg_dir = tmp_path / "frames"
    code = main(["render", "--trace", str(trace_file), "--format", "svg",
                 "--every", "3", "--out", str(svg_dir)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3  # t = 3, 6, 9


def test_render_bad_trace(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["render", "--trace", str(bad)]) == 1


def test_render_a_trace_nested_too_deep(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["render", "--trace", str(deep)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bad trace: ")


def test_render_rejects_snapshot_format_trace(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "env": "S.",
        "strategy": "fcdfs",
        "seed": 0,
        "steps": [{"t": 1, "spawn": 1, "robots": []}],
        "outcome": {"kind": "limit", "t": 1},
    }))
    assert main(["render", "--trace", str(old)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad trace: trace without 'robots': this format")


def test_render_rejects_event_list_trace(tmp_path, capsys):
    """The event-list format is refused with the same one error."""
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "env": "S.",
        "origin": [0, 0],
        "strategy": "fcdfs",
        "seed": 0,
        "events": [[1, 1, "+"], [2, 1, "R"], [3, 1, "X"], [3, 2, "+"]],
        "outcome": {"kind": "covered", "t": 3},
    }))
    assert main(["render", "--trace", str(old)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad trace: trace without 'robots': this format")


def test_render_rejects_corrupted_event(corridor_map, tmp_path, capsys):
    trace_file = tmp_path / "t.json"
    main(["run", "--env", corridor_map, "--strategy", "fcdfs",
          "--trace", str(trace_file)])
    data = json.loads(trace_file.read_text())
    assert data["robots"][0] == [1, "UUUUX"]
    data["robots"][0] = [1, "DUUUX"]  # the door is the corridor's bottom cell
    trace_file.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["render", "--trace", str(trace_file)]) == 1
    err = capsys.readouterr().err
    assert err == "bad trace: t=2: robot 1 at (0, 0) moved D off the region\n"


def test_render_every_must_be_positive(corridor_map, tmp_path, capsys):
    trace_file = tmp_path / "t.json"
    main(["run", "--env", corridor_map, "--strategy", "fcdfs",
          "--trace", str(trace_file)])
    assert main(["render", "--trace", str(trace_file), "--every", "0"]) == 2
    assert "--every must be >= 1" in capsys.readouterr().err


def test_render_every_is_checked_before_the_trace_is_read(tmp_path, capsys):
    assert main(["render", "--trace", str(tmp_path / "missing.json"), "--every", "0"]) == 2
    assert capsys.readouterr().err == "error: --every must be >= 1\n"


@pytest.mark.parametrize(
    "args, flag",
    [
        (["run", "--strategy", "fcdfs", "--max-steps", "0"], "--max-steps"),
        (["run", "--strategy", "fcdfs", "--max-steps", "-3"], "--max-steps"),
        (["compare", "--strategies", "fcdfs", "--reps", "0"], "--reps"),
        (["compare", "--strategies", "fcdfs", "--max-steps", "0"], "--max-steps"),
    ],
)
def test_numeric_flags_below_one_are_usage_errors(corridor_map, capsys, args, flag):
    code = main([*args, "--env", corridor_map])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {flag} must be >= 1\n"
    assert captured.out == ""  # rejected before any run
