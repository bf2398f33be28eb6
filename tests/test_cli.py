import io
import json
import os
import random
import subprocess
import sys
import types

import pytest

from arcdiag import all_permutations, format_permutation
from arcdiag.cli import dispatch

FIG_BODY = "1-3:R;2-5:LL;3-7:LRL"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_delta_worked_example(capsys):
    code, out, err = run(capsys, ["delta", "157842936"])
    assert code == 0 and err == ""
    assert out == "n=9\n2-4:R;3-9:LLRLL;4-8:LRL\n"


def test_delta_identity_prints_empty_body(capsys):
    code, out, _ = run(capsys, ["delta", "123"])
    assert code == 0
    assert out == "n=3\n\n"


def test_delta_comma_form(capsys):
    code, out, _ = run(capsys, ["delta", "10,1,2,3,4,5,6,7,8,9"])
    assert code == 0 and out.splitlines() == ["n=10", "1-10:RRRRRRRR"]
    code, out, _ = run(capsys, ["delta", "2,1,3"])
    assert code == 0 and out.splitlines() == ["n=3", "1-2"]


def test_inverse_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["inverse"], stdin=f"n=8\n{FIG_BODY}\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "46731528\n"


def test_inverse_positional_with_n(capsys):
    code, out, _ = run(capsys, ["inverse", FIG_BODY, "--n", "8"])
    assert code == 0 and out == "46731528\n"


def test_inverse_header_positional_ignores_missing_n(capsys):
    code, out, _ = run(capsys, ["inverse", f"n=8\n{FIG_BODY}"])
    assert code == 0 and out == "46731528\n"


def test_header_and_conflicting_n_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, ["inverse", "n=3\n1-2", "--n", "5"])
    assert (code, out) == (2, "") and err == "error: --n 5 does not match a diagram on 3 points\n"
    code, out, err = run(capsys, ["render", "--ascii", "--n", "4"], stdin="n=3\n1-2\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and "does not match" in err
    code, out, _ = run(capsys, ["inverse", "n=3\n1-2", "--n", "3"])
    assert code == 0 and out == "213\n"


def test_zero_points_are_refused_before_reading_the_body(capsys, monkeypatch):
    # an empty body on 0 points parses, so only the size check refuses it
    want = (2, "", "error: n must be at least 1, got 0\n")
    assert run(capsys, ["inverse", "", "--n", "0"]) == want
    assert run(capsys, ["render", "--ascii", "", "--n", "0"]) == want
    assert run(capsys, ["inverse"], stdin="n=0\n", monkeypatch=monkeypatch) == want


def test_bare_body_on_stdin_takes_trailing_newlines(capsys, monkeypatch):
    code, out, err = run(capsys, ["inverse", "--n", "3"], stdin="1-2\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (0, "213\n", "")
    code, out, _ = run(capsys, ["inverse", "--n", "8"], stdin=f"{FIG_BODY}\n\n", monkeypatch=monkeypatch)
    assert (code, out) == (0, "46731528\n")
    code, out, err = run(capsys, ["render", "--ascii", "--n", "3"], stdin="1-3:L\n", monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert out == run(capsys, ["render", "--ascii", "--n", "3", "1-3:L"])[1]


def test_bare_body_on_stdin_rejects_text_after_it(capsys, monkeypatch):
    for stdin, offset in (("1-2\nx\n", 3), ("1-2 \n", 3), ("1-3:L\n\n2-3\n", 5)):
        code, out, err = run(capsys, ["inverse", "--n", "3"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"(byte {offset})" in err, (stdin, err)


def test_inverse_bare_body_requires_n(capsys):
    code, _, err = run(capsys, ["inverse", "1-2"])
    assert code == 2
    assert "needs --n" in err


def test_enumerate_full_counts_factorial(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4"])
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "total 24"
    assert len(lines) == 25
    assert "" in lines[:-1]  # the empty diagram


def test_enumerate_baxter_total(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--congruence", "baxter"])
    assert code == 0
    assert out.splitlines()[-1] == "total 22"


def test_enumerate_by_arcs(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--congruence", "tamari", "--by-arcs"])
    assert code == 0
    assert out.splitlines() == [
        "arcs=0 count=1",
        "arcs=1 count=6",
        "arcs=2 count=6",
        "arcs=3 count=1",
        "total 14",
    ]


def test_project_tamari(capsys):
    code, out, _ = run(capsys, ["project", "312", "--congruence", "tamari"])
    assert code == 0 and out == "132\n"


def test_project_n_mismatch(capsys):
    code, _, err = run(capsys, ["project", "312", "--congruence", "tamari", "--n", "4"])
    assert code == 2 and "does not match" in err


def test_project_cambrian_spec(capsys):
    code, out, _ = run(capsys, ["project", "312", "--congruence", "cambrian:RRR"])
    assert code == 0 and out == "132\n"


def test_project_unknown_family(capsys):
    code, _, err = run(capsys, ["project", "312", "--congruence", "sylvester"])
    assert code == 2 and "unknown congruence family" in err


def test_render_ascii(capsys):
    code, out, _ = run(capsys, ["render", "--ascii", "1-2", "--n", "2"])
    assert code == 0 and out == "2\n|\n1\n"


def test_render_svg_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["render", "--svg"], stdin="n=3\n1-3:L\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("<svg ") and out.count("<circle") == 3


def test_render_requires_mode(capsys):
    code, _, err = run(capsys, ["render", "1-2", "--n", "2"])
    assert code == 2


def test_export_weak(capsys):
    code, out, _ = run(capsys, ["export", "--n", "3", "--weak"])
    assert code == 0
    assert out.startswith("digraph weak_order {")
    assert out.count("->") == 6


def test_export_forcing_rejects_congruence(capsys):
    code, _, err = run(capsys, ["export", "--n", "3", "--forcing", "--congruence", "tamari"])
    assert code == 2 and "--weak" in err


def test_complex_tamari(capsys):
    code, out, _ = run(capsys, ["complex", "--n", "3", "--congruence", "tamari"])
    assert code == 0
    assert set(out.splitlines()) == {"", "1-2", "2-3", "1-3:L", "1-2;2-3"}
    assert len(out.splitlines()) == 5


def test_complex_defaults_to_all_arcs(capsys):
    code, out, _ = run(capsys, ["complex", "--n", "3"])
    assert code == 0 and len(out.splitlines()) == 6


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--n-max", "4"])
    assert code == 0
    assert "all checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--n-max", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["n_max"] == 3


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    fake = types.SimpleNamespace(
        passed=False,
        to_text=lambda: "FAIL n=2 broken: expected 1, got 0",
        to_json=lambda: "{}",
    )
    monkeypatch.setattr("arcdiag.cli.verify_report", lambda n_max: fake)
    code, out, _ = run(capsys, ["verify", "--n-max", "2"])
    assert code == 1
    assert "FAIL" in out


def test_malformed_permutation_reports_byte_offset(capsys):
    code, _, err = run(capsys, ["delta", "1x2"])
    assert code == 2
    assert err.startswith("error:") and "byte" in err


def test_non_ascii_digit_reports_byte_offset(capsys):
    code, out, err = run(capsys, ["delta", "1,²"])
    assert code == 2 and out == ""
    assert err == "error: expected a number, got '²' (byte 2)\n"


def test_malformed_diagram_exit_2(capsys):
    code, _, err = run(capsys, ["inverse", "1-3:LX", "--n", "3"])
    assert code == 2 and "error:" in err


def test_unknown_flag_exit_2(capsys):
    assert dispatch(["delta", "--frob", "123"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exit_2(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "arcdiag" in capsys.readouterr().out


def test_size_cap_from_environment(capsys, monkeypatch):
    for raw in ("5", " 5 "):
        monkeypatch.setenv("ARCDIAG_MAX_N", raw)
        code, _, err = run(capsys, ["enumerate", "--n", "6"])
        assert code == 2 and "ARCDIAG_MAX_N" in err
        code, out, _ = run(capsys, ["enumerate", "--n", "5"])
        assert code == 0


def test_size_cap_default_is_nine(capsys, monkeypatch):
    monkeypatch.delenv("ARCDIAG_MAX_N", raising=False)
    code, _, err = run(capsys, ["enumerate", "--n", "10"])
    assert code == 2 and "between 1 and 9" in err
    for raw in ("", "  "):
        monkeypatch.setenv("ARCDIAG_MAX_N", raw)
        code, _, err = run(capsys, ["enumerate", "--n", "10"])
        assert code == 2 and "between 1 and 9" in err


def test_size_cap_garbage_value(capsys, monkeypatch):
    # int() would read "1_0" as 10 and "٣" as 3, and refuses more digits than
    # sys.get_int_max_str_digits(); a cap below 1 admits nothing
    for raw in ("many", "1_0", "٣", "0", "-1", "9" * 5000):
        monkeypatch.setenv("ARCDIAG_MAX_N", raw)
        code, _, err = run(capsys, ["enumerate", "--n", "3"])
        assert code == 2 and "integer" in err and "Exceeds" not in err, raw[:20]
        assert len(err) < 200, raw[:20]


def test_integer_flags_take_ascii_digits_only(capsys, monkeypatch):
    # argparse's int() would read "1_0" as 10 and "٣", "+3" and " 3 " as 3, and
    # echo a 5000-digit value whole; "0" is digits, refused by the size checks
    monkeypatch.delenv("ARCDIAG_MAX_N", raising=False)
    for raw in ("many", "1_0", "٣", "0", "-1", "9" * 5000, "+3", " 3 "):
        for argv in (["enumerate", "--n", raw, "--by-arcs"], ["complex", "--n", raw],
                     ["export", "--n", raw, "--forcing"], ["render", "--ascii", "1-2", "--n", raw],
                     ["inverse", "1-2", "--n", raw], ["project", "21", "--congruence", "tamari", "--n", raw],
                     ["verify", "--n-max", raw]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and 0 < len(err) < 200, (argv[0], raw[:20])
            assert raw == "0" or "ASCII digits" in err or "too long" in err, (argv[0], raw[:20])
    code, out, _ = run(capsys, ["render", "--ascii", "1-2", "--n", "2"])
    assert code == 0 and len(out.splitlines()) == 3


def test_polynomial_commands_ignore_size_cap(capsys, monkeypatch):
    monkeypatch.delenv("ARCDIAG_MAX_N", raising=False)
    entries = list(range(1, 51))
    random.Random(50).shuffle(entries)
    word = ",".join(map(str, entries))
    code, header_form, _ = run(capsys, ["delta", word])
    assert code == 0 and header_form.startswith("n=50\n")
    code, out, _ = run(capsys, ["inverse"], stdin=header_form, monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == word
    code, out, _ = run(capsys, ["render", "--ascii"], stdin=header_form, monkeypatch=monkeypatch)
    assert code == 0 and len(out.splitlines()) == 2 * 50 - 1
    for spec in ("tamari", "baxter", "cambrian:" + "LR" * 25, "clumped:1", "clumped:2", "maxlen:3"):
        code, out, err = run(capsys, ["project", word, "--congruence", spec])
        assert code == 0 and err == "", spec
        bottom = out.strip()
        assert sorted(map(int, bottom.split(","))) == list(range(1, 51)), spec
        code, out, _ = run(capsys, ["project", bottom, "--congruence", spec])
        assert code == 0 and out.strip() == bottom, spec


def test_verify_rejects_sizes_past_its_limit(capsys, monkeypatch):
    monkeypatch.delenv("ARCDIAG_MAX_N", raising=False)
    code, out, err = run(capsys, ["verify", "--n-max", "9"])
    assert code == 2 and out == ""
    assert "between 1 and 8" in err


@pytest.mark.parametrize("n", range(1, 7))
def test_pipe_round_trip(capsys, monkeypatch, n):
    for x in all_permutations(n):
        word = format_permutation(x)
        assert dispatch(["delta", word]) == 0
        header_form = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(header_form))
        assert dispatch(["inverse"]) == 0
        assert capsys.readouterr().out.strip() == word


def test_pipe_round_trip_n7_exhaustive(capsys, monkeypatch):
    for x in all_permutations(7):
        word = format_permutation(x)
        assert dispatch(["delta", word]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert dispatch(["inverse"]) == 0
        assert capsys.readouterr().out.strip() == word


def test_closed_stdout_ends_quietly():
    # `arcdiag enumerate --n 8 | head -1`: the reader leaves after one line
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "arcdiag.cli", "enumerate", "--n", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == b""


def test_cli_imports_neither_dataclasses_nor_json():
    # against the interpreter's own start-up modules, so a site hook that loads them does not count
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys; bare = set(sys.modules); import arcdiag.cli; print(*sorted(set(sys.modules) - bare))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "arcdiag.cli" in loaded
    assert not loaded & {"dataclasses", "json"}
    # `verify --json` imports json when it needs it
    proc = subprocess.run([sys.executable, "-m", "arcdiag.cli", "verify", "--n-max", "2", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["n_max"] == 2


BIG = "1" + "0" * 3999  # 4,000 digits: below int()'s limit, so the flags accept it
BIG_SHOWN = "10000000000000000000...0000000000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--n", BIG], f"n must be between 1 and 9 (ARCDIAG_MAX_N), got {BIG_SHOWN}"),
        (["verify", "--n-max", BIG], f"--n-max must be between 1 and 8, got {BIG_SHOWN}"),
        (["project", "21", "--congruence", "tamari", "--n", BIG], f"--n {BIG_SHOWN} does not match a permutation of 2"),
        (["inverse", "n=3\n1-2", "--n", BIG], f"--n {BIG_SHOWN} does not match a diagram on 3 points"),
        (["render", "--ascii", "1-2", "--n", BIG], f"n must be at most {sys.maxsize}, got {BIG_SHOWN}"),
    ],
)
def test_range_errors_shorten_long_numbers(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("ARCDIAG_MAX_N", raising=False)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 200


def test_a_long_header_on_stdin_is_shortened(capsys, monkeypatch):
    # the size rule lives in `ArcSet`, which `parse_diagram` builds, and words n as the flags do
    for argv in (["inverse"], ["render", "--ascii"], ["render", "--svg"]):
        code, out, err = run(capsys, argv, f"n={BIG}\n1-2\n", monkeypatch)
        assert (code, out, err) == (2, "", f"error: n must be at most {sys.maxsize}, got {BIG_SHOWN}\n"), argv


def test_a_malformed_body_reports_its_parse_error_before_the_size(capsys):
    # the arcs parse before the set that checks n is built
    code, out, err = run(capsys, ["inverse", "1-x", "--n", str(sys.maxsize + 1)])
    assert (code, out, err) == (2, "", "error: expected the upper endpoint (byte 2)\n")


@pytest.mark.parametrize("stdin", [None, "n=8\n" + FIG_BODY + "\n"])
@pytest.mark.parametrize("mode", ["--ascii", "--svg"])
def test_render_evaluates_the_forcing_rule_once(capsys, monkeypatch, forcing_evaluations, mode, stdin):
    # a diagram is parsed and drawn by the sweep alone; a refused set evaluates
    # the forcing masks once, to word its first incompatible pair
    refused = "2-5:LR;3-7:RLL"
    for body, evaluated in ((FIG_BODY, []), (refused, [refused])):
        argv = ["render", mode] if stdin else ["render", mode, body, "--n", "8"]
        code, out, err = run(capsys, argv, stdin and stdin.replace(FIG_BODY, body), monkeypatch)
        if evaluated:
            assert (code, out) == (2, "") and err.startswith("error: incompatible arcs: point 3 forces 2-5:LR")
        else:
            assert code == 0 and err == "" and out
        assert [str(d) for d in forcing_evaluations] == evaluated


@pytest.mark.parametrize("n", [sys.maxsize + 1, 10**30])
def test_inverse_and_render_refuse_sizes_past_sys_maxsize(capsys, monkeypatch, n):
    # no list is longer than sys.maxsize: the inverse raised OverflowError, and render ran out of memory
    for argv, stdin in ((["inverse", "1-2", "--n", str(n)], None), (["render", "--ascii", "1-2", "--n", str(n)], None),
                        (["inverse"], f"n={n}\n1-2\n"), (["render", "--svg"], f"n={n}\n1-2\n")):
        code, out, err = run(capsys, argv, stdin, monkeypatch)
        assert (code, out, err) == (2, "", f"error: n must be at most {sys.maxsize}, got {n}\n"), argv
