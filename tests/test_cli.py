import ast
import atexit
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kleinnet
from kleinnet import limitset, qnet, sl2
from kleinnet.cli import main

NET_TEXT = """\
v 1
v 2
v 3
e 1 1 2
e 2 2 3
e 3 3 1
e 4 1 3
"""

REP_333 = """\
a 1.0,0.0 1.0,0.0 1.0,0.0 2.0,0.0
b 1.0,0.0 -1.0,0.0 -1.0,0.0 2.0,0.0
"""

BELL_CIRCUIT = """\
init 1 1 0 0 0
init 2 1 0 0 0
SU2 1 0 0.7071067811865476 0 0.7071067811865476 0 0.7071067811865476 0 -0.7071067811865476
CNOT 1 2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(NET_TEXT)
    return str(path)


@pytest.fixture
def rep_file(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text(REP_333)
    return str(path)


# -- exit codes --------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["graph"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["limitset", "--no-such-flag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_domain_errors_exit_one(capsys, rep_file):
    code, out, err = run_cli(capsys, "graph", "--file", "missing.txt")
    assert code == 1 and err.startswith("error:")
    code, out, err = run_cli(capsys, "dessin", "--subgroup", "a")
    assert code == 1 and "infinite" in err
    code, out, err = run_cli(capsys, "character", "--rep", rep_file)
    assert code == 1 and "nothing to do" in err


def test_module_entry_point(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text(REP_333)
    proc = subprocess.run(
        [sys.executable, "-m", "kleinnet", "character", "--rep", str(path), "--words", "a"],
        capture_output=True,
        text=True,
        env=_env_with_src(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["word,re,im", "a,3,0"]


def _env_with_src():
    src = str(Path(kleinnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(*argv, timeout=None):
    """Run `python -m kleinnet` in a fresh interpreter, so that an uncaught
    exception shows as a traceback on stderr rather than in the test."""
    proc = subprocess.run(
        [sys.executable, "-m", "kleinnet", *argv],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _console_script():
    """The module and function that pyproject.toml's `kleinnet` script names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^kleinnet = "([\w.]+):(\w+)"$', text, re.M).groups()


def test_console_script_runs_the_module_entry():
    module, name = _console_script()
    entry = importlib.import_module(module)
    guard = ast.parse(Path(kleinnet.__file__).with_name("__main__.py").read_text()).body[-1]
    calls = [n.func.id for n in ast.walk(guard) if isinstance(n, ast.Call)]
    assert calls == [name]
    assert getattr(entry, name) is getattr(importlib.import_module("kleinnet.__main__"), name)


# an atexit handler registered before the entry runs after the entry's own
# (handlers run last in, first out)
FREEZE_CHECK = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
)


@pytest.mark.parametrize("entry", ["module", "console-script"])
def test_process_entry_freezes_the_heap_at_exit(capsys, tmp_path, entry):
    # sitecustomize runs at interpreter start, before `-m` or `-c`
    (tmp_path / "sitecustomize.py").write_text(FREEZE_CHECK)
    env = _env_with_src()
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), env["PYTHONPATH"]))
    argv = ["degenerate", "--t-values", "5,10,20", "--max-len", "4"]
    if entry == "module":
        command = ["-m", "kleinnet", *argv]
    else:
        module, name = _console_script()
        command = ["-c", f"import sys, {module}\nsys.argv[1:] = {argv!r}\n{module}.{name}()"]
    proc = subprocess.run([sys.executable, *command], capture_output=True, text=True, env=env)
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, "frozen True\n")
    assert proc.stdout == out and len(out.splitlines()) == 4


def test_main_has_no_process_wide_effect(capsys):
    frozen, handlers = gc.get_freeze_count(), atexit._ncallbacks()
    assert run_cli(capsys, "dessin", "--subgroup", "aa,b,abA")[0] == 0
    assert run_cli(capsys, "graph", "--file", "missing.txt")[0] == 1
    with pytest.raises(SystemExit):
        main(["graph"])
    assert (gc.get_freeze_count(), atexit._ncallbacks()) == (frozen, handlers)


def test_qnet_stdout_through_a_pipe_matches_the_out_file(tmp_path):
    argv = [sys.executable, "-m", "kleinnet", "qnet", "--random-circuit", "200", "--areas", "12"]
    env = _env_with_src()
    piped = subprocess.run(argv, capture_output=True, env=env)
    path = tmp_path / "amps.csv"
    written = subprocess.run([*argv, "--out", str(path)], capture_output=True, env=env)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert piped.stdout == path.read_bytes()
    assert len(piped.stdout.splitlines()) == 1 + 4096


def _heavy_modules_after(*argv, imports=(), names=("numpy", "scipy")):
    """Which of `names` a fresh interpreter holds after importing
    kleinnet.cli, then the kleinnet modules in `imports`, and, when argv is
    given, running cli.main(argv)."""
    code = (
        "import importlib, sys, kleinnet.cli\n"
        f"for module in {list(imports)!r}:\n"
        "    importlib.import_module('kleinnet.' + module)\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    assert kleinnet.cli.main(argv) == 0\n"
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_subcommands_import_only_what_they_use(net_file, rep_file):
    assert _heavy_modules_after() == "[]"
    assert _heavy_modules_after("dessin", "--subgroup", "aa,b,abA") == "[]"
    assert _heavy_modules_after("graph", "--file", net_file) == "[]"
    assert _heavy_modules_after("degenerate", "--t-values", "5,10", "--max-len", "2") == "[]"
    assert _heavy_modules_after("character", "--rep", rep_file, "--words", "ab") == "[]"
    limitset_run = ("limitset", "--traces", "3,3,3", "--eps", "1e-2")
    assert _heavy_modules_after(*limitset_run) == "['numpy']"


def test_limitset_loads_no_numpy_ma(tmp_path):
    # np.unique on int64 keys imports numpy.ma (about 13 ms cold); box
    # counting, the invariance search and the CSV formatter group keys
    # without it.  This run counts boxes, searches the coarse summary grid
    # and writes the CSV.
    csv = (tmp_path / "cloud.csv").as_posix()
    code = (
        "import sys, kleinnet.cli\n"
        f"argv = ['limitset', '--traces', '3,3,3', '--eps', '1e-3', '--csv', {csv!r}]\n"
        "assert kleinnet.cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("box_dimension ") for line in lines)
    assert (tmp_path / "cloud.csv").stat().st_size > 0
    assert lines[-1] == "False"


# dataclasses generates each record class's methods with exec and imports
# inspect (8-12 ms cold); numpy imports inspect itself
NO_DATACLASSES = {
    "netgraph": ("dataclasses", "inspect"),
    "sl2": ("dataclasses", "inspect"),
    "dessin": ("dataclasses", "inspect"),
    "degeneration": ("dataclasses", "inspect"),
    "limitset": ("dataclasses",),
    "qnet": ("dataclasses",),
}


@pytest.mark.parametrize("module", NO_DATACLASSES)
def test_modules_load_no_dataclasses(module):
    absent = NO_DATACLASSES[module]
    assert _heavy_modules_after(imports=(module,), names=absent) == "[]"


def test_degenerate_loads_json_only_for_the_report():
    run = ("degenerate", "--t-values", "5,10", "--max-len", "4")
    assert _heavy_modules_after(*run, names=("json",)) == "[]"
    assert _heavy_modules_after(*run, "--report", names=("json",)) == "['json']"


# -- graph -------------------------------------------------------------------------


def test_graph_summary(capsys, net_file):
    code, out, err = run_cli(capsys, "graph", "--file", net_file)
    assert code == 0
    lines = out.splitlines()
    assert "vertices 3" in lines
    assert "rank 2" in lines
    assert "generator a edge 2" in lines


def test_graph_walk(capsys, net_file):
    code, out, err = run_cli(capsys, "graph", "--file", net_file, "--walk", "1,2,3")
    assert code == 0
    assert out.splitlines()[-1] == "walk_word a"


def test_graph_bad_walk(capsys, net_file):
    code, out, err = run_cli(capsys, "graph", "--file", net_file, "--walk", "1,2")
    assert code == 1 and "closed" in err


def test_graph_walk_rejects_non_integer_steps(net_file):
    code, out, err = run_module("graph", "--file", net_file, "--walk", "1,x")
    assert code == 1 and "Traceback" not in err
    assert err == "error: bad walk '1,x': expected comma-separated signed edge ids\n"


# -- character ---------------------------------------------------------------------


def test_character_csv(capsys, rep_file):
    code, out, err = run_cli(capsys, "character", "--rep", rep_file, "--words", "a,ab")
    assert code == 0
    assert out.splitlines() == ["word,re,im", "a,3,0", "ab,3,0"]


def test_character_classify_and_theta(capsys, rep_file):
    code, out, err = run_cli(
        capsys, "character", "--rep", rep_file, "--words", "abAB", "--classify", "--theta"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,re,im,kind,length,theta"
    assert lines[1] == "abAB,-2,0,parabolic,0,1.38629436"


def test_character_moduli(capsys, rep_file):
    code, out, err = run_cli(capsys, "character", "--rep", rep_file, "--moduli")
    assert code == 0
    assert out.splitlines() == ["word,re,im", "a,3,0", "b,3,0", "ab,3,0"]


def test_character_moduli_needs_rank_two(capsys, tmp_path):
    path = tmp_path / "rep1.txt"
    path.write_text(REP_333.splitlines()[0] + "\n")
    code, out, err = run_cli(capsys, "character", "--rep", str(path), "--moduli")
    assert code == 1 and out == ""
    assert err == "error: trace coordinates exist only for rank 2\n"


def test_character_words_file(capsys, rep_file, tmp_path):
    words_path = tmp_path / "words.txt"
    words_path.write_text("# batch\na\n\nba\n")
    code, out, err = run_cli(
        capsys, "character", "--rep", rep_file, "--words-file", str(words_path)
    )
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["a", "ba"]


def test_character_list_classes(capsys, rep_file):
    code, out, err = run_cli(
        capsys, "character", "--rep", rep_file, "--list-classes", "--max-len", "1"
    )
    assert code == 0
    assert out.splitlines() == ["a", "A", "b", "B"]


def test_character_echo_rep_round_trip(capsys, rep_file, tmp_path):
    echoed = tmp_path / "echo.txt"
    code, out, err = run_cli(
        capsys, "character", "--rep", rep_file, "--words", "a", "--echo-rep", str(echoed)
    )
    assert code == 0
    assert sl2.load_rep(str(echoed)) == sl2.load_rep(rep_file)


# -- degenerate --------------------------------------------------------------------


def test_degenerate_csv_and_report(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys,
        "degenerate",
        "--t-values",
        "15,20",
        "--max-len",
        "2",
        "--csv",
        str(csv_path),
        "--report",
    )
    assert code == 0
    body = csv_path.read_text()
    assert body.startswith("t,lambda,a,A,b,B,")
    assert "\n15,60,0.5,0.5,0.5,0.5," in body
    report = json.loads(out)
    assert report["passed"] is True
    assert report["oracle_distance"] == pytest.approx(0.01732868, abs=1e-7)


def test_degenerate_stdout(capsys):
    code, out, err = run_cli(capsys, "degenerate", "--t-values", "15,20", "--max-len", "1")
    assert code == 0
    assert out.splitlines()[0] == "t,lambda,a,A,b,B"


def test_degenerate_has_no_family_option():
    with pytest.raises(SystemExit) as info:
        main(["degenerate", "--t-values", "1,2", "--family", "schottky"])
    assert info.value.code == 2


def test_degenerate_rejects_bad_grid(capsys):
    code, out, err = run_cli(capsys, "degenerate", "--t-values", "5,4")
    assert code == 1 and "increase" in err
    code, out, err = run_cli(capsys, "degenerate", "--t-values", "5,x")
    assert code == 1


@pytest.mark.parametrize("t_values", ["5,nan", "nan,5"])
def test_degenerate_names_a_nonfinite_grid(t_values):
    code, out, err = run_module("degenerate", "--t-values", t_values)
    assert code == 1 and out == ""
    assert "finite" in err and "increase" not in err
    assert "Traceback" not in err and "nan" not in err.lower()


# Class lists whose reduced words would hold more than words.MAX_LETTERS
# letters are refused before the walk starts.
@pytest.mark.parametrize(
    "argv",
    [
        ("degenerate", "--t-values", "5,10", "--max-len", "20"),
        ("character", "--rep", "REP", "--list-classes", "--max-len", "100000"),
    ],
    ids=["degenerate-rank-2", "character-rank-1"],
)
def test_class_lists_past_the_letter_budget_exit_one(tmp_path, argv):
    rep = tmp_path / "rep.txt"
    rep.write_text("a 2,0 0,0 0,0 0.5,0\n")
    start = time.perf_counter()
    code, out, err = run_module(
        *(str(rep) if a == "REP" else a for a in argv), timeout=30
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: max_length") and "Traceback" not in err


# Non-finite rep entries, an infinite t and a t whose products overflow each
# exit 1 with a message that names no non-finite value.
@pytest.mark.parametrize(
    "argv",
    [
        ("character", "--rep", "REP", "--words", "a"),
        ("limitset", "--rep", "REP"),
        ("degenerate", "--t-values", "5,inf"),
        ("degenerate", "--t-values", "100,200"),
        ("degenerate", "--t-values", "1000,2000"),
    ],
    ids=["character-rep", "limitset-rep", "t-infinite", "t-100", "t-1000"],
)
def test_nonfinite_sl2_inputs_exit_one_with_a_message(tmp_path, argv):
    rep = tmp_path / "rep.txt"
    rep.write_text("a nan,0 1,0 1,0 2,0\nb 1,0 -1,0 -1,0 2,0\n")
    code, out, err = run_module(*(str(rep) if a == "REP" else a for a in argv))
    assert code == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "nan" not in err.lower()


# The sweep builds and evaluates each t value in turn, so the products at
# t = 100 overflow before the family at t = 1000 is built.
def test_degenerate_reports_the_first_failing_t_value():
    code, out, err = run_module("degenerate", "--t-values", "100,1000")
    assert (code, out, err) == (1, "", "error: not unimodular: det is not finite\n")


# -- limitset ----------------------------------------------------------------------


def test_limitset_fuchsian_outputs(capsys, tmp_path):
    ppm = tmp_path / "lim.ppm"
    csv_path = tmp_path / "cloud.csv"
    code, out, err = run_cli(
        capsys,
        "limitset",
        "--traces",
        "3,3,3",
        "--eps",
        "2e-3",
        "--out",
        str(ppm),
        "--csv",
        str(csv_path),
        "--width",
        "64",
        "--height",
        "64",
    )
    assert code == 0
    stats = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(stats["circle_deviation"]) < 1e-3
    assert float(stats["invariance"]) < 5 * 2e-3
    assert 0.8 < float(stats["box_dimension"]) < 1.1
    assert stats["truncated"] == "0"
    assert ppm.read_bytes().startswith(b"P6\n64 64\n255\n")
    assert csv_path.read_text().splitlines()[0] == "re,im,chart"


def test_limitset_byte_determinism(capsys, tmp_path):
    def run(tag):
        ppm = tmp_path / f"{tag}.ppm"
        csv_path = tmp_path / f"{tag}.csv"
        code, out, err = run_cli(
            capsys,
            "limitset",
            "--traces",
            "3,3,3",
            "--eps",
            "4e-3",
            "--out",
            str(ppm),
            "--csv",
            str(csv_path),
        )
        assert code == 0
        return out, ppm.read_bytes(), csv_path.read_bytes()

    assert run("first") == run("second")


def test_limitset_from_rep_file(capsys, rep_file):
    code, out, err = run_cli(
        capsys, "limitset", "--rep", rep_file, "--eps", "5e-3"
    )
    assert code == 0
    assert out.splitlines()[:2] == ["points 788", "truncated 0"]


def test_limitset_complex_trace_syntax(capsys):
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3+0.5i,3", "--eps", "8e-3"
    )
    assert code == 0
    stats = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(stats["circle_deviation"]) > 1e-2


def test_limitset_flag_validation(capsys, rep_file):
    code, out, err = run_cli(capsys, "limitset", "--eps", "1e-3")
    assert code == 1 and "exactly one" in err
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3,3", "--rep", rep_file
    )
    assert code == 1 and "exactly one" in err
    code, out, err = run_cli(capsys, "limitset", "--traces", "3,3,3,3")
    assert code == 1 and "two or three" in err
    code, out, err = run_cli(capsys, "limitset", "--traces", "3,3q,3")
    assert code == 1 and "bad complex" in err
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3,3,3", "--window", "0,1"
    )
    assert code == 1 and "window" in err
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3,3,3", "--other-root", "--rep", rep_file
    )
    assert code == 1


def test_limitset_other_root_refused_with_three_traces():
    # from_traces refuses other_root when z is given, and the CLI reports it
    code, out, err = run_module("limitset", "--traces", "3,3,3", "--other-root")
    assert code == 1 and out == ""
    assert "other_root applies only when z is solved" in err
    assert err.startswith("error: ") and "Traceback" not in err


def test_limitset_refuses_an_image_over_the_pixel_budget(tmp_path):
    out_path = tmp_path / "X.ppm"
    code, out, err = run_module(
        "limitset", "--traces", "3,3", "--eps", "1e-2",
        "--width", "100000", "--height", "100000", "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()


def test_limitset_refuses_a_cap_over_the_budget():
    # 10^8 points would take about 20 GB
    code, out, err = run_module(
        "limitset", "--traces", "3,3,3", "--eps", "1e-9", "--cap", "100000000"
    )
    assert (code, out) == (1, "")
    assert err == f"error: point cap must be at most {limitset.MAX_CAP}, got 100000000\n"


def test_limitset_refuses_a_depth_over_the_budget():
    # narrow levels of about 36 us each: ten hours at this depth
    start = time.perf_counter()
    code, out, err = run_module(
        "limitset", "--traces", "2,2", "--eps", "1e-300",
        "--depth", "1000000000", "--cap", "4", timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"error: max_depth must be at most MAX_DEPTH = {limitset.MAX_DEPTH}, got 1000000000\n"
    )


def test_limitset_defaults_come_from_the_library(capsys):
    implicit = run_cli(capsys, "limitset", "--traces", "3,3,3")
    explicit = run_cli(
        capsys, "limitset", "--traces", "3,3,3",
        "--eps", repr(limitset.DEFAULT_EPSILON),
        "--depth", str(limitset.DEFAULT_MAX_DEPTH),
        "--cap", str(limitset.DEFAULT_CAP),
    )
    assert implicit == explicit and implicit[0] == 0


def test_limitset_skips_box_dimension_with_few_points_in_the_window(capsys, tmp_path):
    # 888 of the 1,000 capped points lie within WINDOW_RADIUS, too few to
    # box-count; the other statistics still print
    csv_path = tmp_path / "X.csv"
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3,3,3", "--eps", "1e-3",
        "--cap", "1000", "--csv", str(csv_path),
    )
    assert code == 0 and err == ""
    keys = [line.split(" ", 1)[0] for line in out.splitlines()]
    assert keys == ["points", "truncated", "circle_deviation", "invariance"]
    assert len(csv_path.read_text().splitlines()) == 1001


@pytest.mark.parametrize("traces", ["1e200,3", "nan,3", "3,3,nan", "1e200,3,3"])
def test_limitset_rejects_nonfinite_traces(capsys, traces):
    code, out, err = run_cli(capsys, "limitset", "--traces", traces)
    assert code == 1 and err.startswith("error: traces must be finite")
    assert "nan" not in err.lower()


# The limit-set search needs loxodromic or parabolic generators: finite-order
# ones never prune, and their clouds are no limit sets.
@pytest.mark.parametrize(
    "argv",
    [
        ("--traces", "1.3,3"),
        ("--traces", "0,0"),
        ("--rep", "REP"),
    ],
    ids=["traces-1.3", "traces-0", "rep"],
)
def test_limitset_rejects_elliptic_generators(tmp_path, argv):
    rep = tmp_path / "rep.txt"
    rep.write_text("a 2,0 0,0 0,0 0.5,0\nb 0,0 1,0 -1,0 0,0\n")
    code, out, err = run_module(
        "limitset", *(str(rep) if a == "REP" else a for a in argv), timeout=30
    )
    assert code == 1 and out == ""
    assert "elliptic" in err and "Traceback" not in err
    assert not re.search(r"\b(nan|inf)\b", err, re.IGNORECASE)


@pytest.mark.parametrize(
    "rep_text",
    [
        "a 2.718281828459045,0 0,0 0,0 0.36787944117144233,0\n",
        "a 2.718281828459045,0 0,0 0,0 0.36787944117144233,0\nb 1,0 1,0 0,0 1,0\n",
    ],
    ids=["one-generator", "shared-fixed-point"],
)
def test_limitset_elementary_rep_exits_one(tmp_path, rep_text):
    rep = tmp_path / "rep.txt"
    rep.write_text(rep_text)
    code, out, err = run_module("limitset", "--rep", str(rep), timeout=30)
    assert code == 1 and out == ""
    assert "elementary" in err and "Traceback" not in err


# Both pairs fix a point (infinity, resp. 0), but with entries near 1e150 the
# rounding bound on tr[a,b] - 2 is not finite, so the question cannot be
# settled; the run exits 1 with a plain message.
@pytest.mark.parametrize(
    "rep_text",
    [
        "a 1e150,0 0,0 0,0 1e-150,0\nb 1,0 1e150,0 0,0 1,0\n",
        "a 1e150,0 0,0 0,0 1e-150,0\nb 1,0 0,0 1e150,0 1,0\n",
    ],
    ids=["upper", "lower"],
)
def test_limitset_huge_entries_exit_one(tmp_path, rep_text):
    rep = tmp_path / "rep.txt"
    rep.write_text(rep_text)
    code, out, err = run_module("limitset", "--rep", str(rep), timeout=30)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    assert not re.search(r"\b(nan|inf)\b", err, re.IGNORECASE)


# Markov triples have tr[a,b] = -2, so they are never elementary, however
# close their generators' fixed points come in the chordal metric.
@pytest.mark.parametrize("x", ["52.6", "60", "90.6", "150", "199.9"])
def test_limitset_large_markov_traces_run(capsys, x):
    code, out, err = run_cli(capsys, "limitset", "--traces", f"{x},{x}", "--eps", "1e-3")
    assert code == 0 and err == ""
    assert out.startswith("points ")


# A finest cell wider than the cloud searches as a cell of side 2 does.
@pytest.mark.parametrize("eps", ["1e200", "1e300", "inf"])
def test_limitset_huge_eps_runs_as_eps_two(eps):
    code, out, err = run_module("limitset", "--traces", "3,3,3", "--eps", eps, timeout=30)
    assert code == 0 and "Traceback" not in err
    assert out == run_module("limitset", "--traces", "3,3,3", "--eps", "2", timeout=30)[1]


# The window is checked before the search, whether or not an image is drawn
# (an uncaught exception would fail the test in-process).
@pytest.mark.parametrize(
    "window", ["nan,1,0,1", "inf,inf,inf,inf", "0,inf,0,1", "1,0,0,1", "0,1,0,1,2"]
)
@pytest.mark.parametrize("draw", [False, True], ids=["stats", "ppm"])
def test_limitset_rejects_a_bad_window(capsys, tmp_path, window, draw):
    out_path = tmp_path / "X.ppm"
    argv = ["limitset", "--traces", "3,3", "--window", window]
    code, out, err = run_cli(capsys, *argv, *(["--out", str(out_path)] if draw else []))
    assert code == 1 and out == "" and err.startswith("error: window")
    assert not out_path.exists()


# The image size is checked before the search too, but only when an image is
# drawn: --width and --height mean nothing without --out.
@pytest.mark.parametrize(
    "size,message",
    [(("100000", "100000"), "exceeds the budget"), (("0", "10"), "must be positive")],
    ids=["over-budget", "empty"],
)
def test_limitset_checks_the_image_size_before_the_search(
    capsys, tmp_path, monkeypatch, size, message
):
    def no_search(*args, **kwargs):
        raise AssertionError("the limit-set search ran")

    monkeypatch.setattr(limitset, "enumerate_limit_set", no_search)
    out_path = tmp_path / "X.ppm"
    code, out, err = run_cli(
        capsys, "limitset", "--traces", "3,3", "--width", size[0],
        "--height", size[1], "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert not out_path.exists()


# -- dessin ------------------------------------------------------------------------


def test_dessin_summary(capsys, tmp_path):
    dot_path = tmp_path / "d.dot"
    code, out, err = run_cli(
        capsys, "dessin", "--subgroup", "aa,b,abA", "--dot", str(dot_path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index 2"
    summary = json.loads("\n".join(lines[1:]))
    assert summary["genus"] == 0
    assert summary["V"] == 3
    dot = dot_path.read_text()
    assert dot.startswith("graph dessin {") and dot.count(" -- ") == 2


def test_dessin_deterministic(capsys):
    first = run_cli(capsys, "dessin", "--subgroup", "aaa,b,abA,aabAA")
    second = run_cli(capsys, "dessin", "--subgroup", "aaa,b,abA,aabAA")
    assert first == second and first[0] == 0


# -- qnet --------------------------------------------------------------------------


def test_qnet_circuit_file(capsys, tmp_path):
    path = tmp_path / "bell.txt"
    path.write_text(BELL_CIRCUIT)
    code, out, err = run_cli(capsys, "qnet", "--circuit", str(path))
    assert code == 0
    assert out.splitlines() == [
        "basis_index,re,im",
        "0,0,0.707106781",
        "1,0,0",
        "2,0,0",
        "3,0,0.707106781",
    ]


def test_qnet_random_emit_rerun(capsys, tmp_path):
    circ = tmp_path / "circ.txt"
    out1 = tmp_path / "amps1.csv"
    out2 = tmp_path / "amps2.csv"
    code, _, _ = run_cli(
        capsys,
        "qnet",
        "--random-circuit",
        "25",
        "--areas",
        "3",
        "--seed",
        "11",
        "--emit",
        str(circ),
        "--out",
        str(out1),
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "qnet", "--circuit", str(circ), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_qnet_random_runs_the_drawn_gates(capsys, tmp_path, monkeypatch):
    # the drawn gates run as they are: circuit text is written only for
    # --emit, and never parsed back
    def refuse(*args):
        raise AssertionError("random circuit went through circuit text")

    argv = ["qnet", "--random-circuit", "25", "--areas", "3", "--seed", "11"]
    out1, out2 = tmp_path / "amps1.csv", tmp_path / "amps2.csv"
    circ = tmp_path / "circ.txt"
    with monkeypatch.context() as patch:
        patch.setattr(qnet, "parse_circuit_text", refuse)
        patch.setattr(qnet, "format_circuit_text", refuse)
        assert run_cli(capsys, *argv, "--out", str(out1))[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(qnet, "parse_circuit_text", refuse)
        code, _, _ = run_cli(capsys, *argv, "--emit", str(circ), "--out", str(out2))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "amps3.csv"
    code, _, _ = run_cli(capsys, "qnet", "--circuit", str(circ), "--out", str(out3))
    assert code == 0
    assert out3.read_bytes() == out1.read_bytes()


def test_qnet_seed_determinism(capsys, tmp_path):
    def run(tag):
        out = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(
            capsys,
            "qnet",
            "--random-circuit",
            "40",
            "--areas",
            "4",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        assert code == 0
        return out.read_bytes()

    assert run("a") == run("b")


@pytest.mark.parametrize(
    "text",
    ["init 1 1 0 0 0\nSU2 1 nan 0 0 0 0 0 1 0\n", "init 1 nan 0 1 0\n"],
    ids=["su2-entry", "init-entry"],
)
def test_qnet_rejects_nonfinite_numbers(tmp_path, text):
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    code, out, err = run_module("qnet", "--circuit", str(path))
    assert code == 1 and out == ""
    assert "Traceback" not in err and "nan" not in err.lower()


def test_qnet_rejects_negative_seed():
    code, out, err = run_module(
        "qnet", "--random-circuit", "5", "--areas", "2", "--seed", "-1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_qnet_refuses_a_random_gate_count_over_the_budget():
    n = qnet.MAX_RANDOM_GATES + 1
    code, out, err = run_module("qnet", "--random-circuit", str(n), "--areas", "2")
    assert (code, out) == (1, "")
    assert err == f"error: random gate count must be at most {n - 1}, got {n}\n"


def test_qnet_refuses_a_random_circuit_over_the_work_budget():
    # within MAX_RANDOM_GATES and MAX_AREAS, but about 6 minutes of gates
    code, out, err = run_module("qnet", "--random-circuit", "65536", "--areas", "20")
    assert (code, out) == (1, "")
    assert err == (
        "error: 65536 gates on 20 areas exceed the work budget: "
        f"gates x 2^areas is {65536 << 20}, at most {qnet.MAX_GATE_WORK}\n"
    )


def test_qnet_refuses_a_circuit_file_over_the_work_budget(tmp_path):
    n_gates = (qnet.MAX_GATE_WORK >> qnet.MAX_AREAS) + 1
    lines = [f"init {k} 1 0 0 0" for k in range(1, qnet.MAX_AREAS + 1)]
    circuit = tmp_path / "c.txt"
    circuit.write_text("\n".join(lines + ["NOT 1"] * n_gates) + "\n")
    out_path = tmp_path / "amps.csv"
    code, out, err = run_module("qnet", "--circuit", str(circuit), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {n_gates} gates on {qnet.MAX_AREAS} areas exceed the work budget")
    assert "Traceback" not in err
    assert not out_path.exists()


def test_qnet_mode_and_zero_state_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "qnet")
    assert code == 1 and "exactly one" in err
    path = tmp_path / "zero.txt"
    path.write_text("init 1 0 0 0 0\nNOT 1\n")
    code, out, err = run_cli(capsys, "qnet", "--circuit", str(path))
    assert code == 1 and "unnormalizable" in err


@pytest.mark.parametrize(
    "flags", [["--emit", "EMIT"], ["--areas", "3"], ["--seed", "4"]], ids=["emit", "areas", "seed"]
)
def test_qnet_circuit_refuses_random_circuit_flags(tmp_path, flags):
    circuit = tmp_path / "c.txt"
    circuit.write_text("init 1 1 0 0 0\nNOT 1\n")
    emit = tmp_path / "out.txt"
    flags = [str(emit) if f == "EMIT" else f for f in flags]
    code, out, err = run_module("qnet", "--circuit", str(circuit), *flags)
    assert (code, out) == (1, "")
    assert err == "error: --areas, --seed and --emit apply only to --random-circuit\n"
    assert not emit.exists()
