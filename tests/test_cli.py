"""Command-line interface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from broughton.cli import (
    COMMANDS,
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)
from broughton import report
from broughton.unipoly import UniPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_admissible(self, capsys):
        code, out, _ = run(capsys, "check", "x^2", "x*(x+2)")
        assert code == EXIT_OK
        assert out == (
            "schema_version: 1\n"
            "command: check\n"
            "inputs:\n"
            "  p: x^2\n"
            "  q: x^2 + 2*x\n"
            "hypotheses:\n"
            "  common_root_pq: yes\n"
            "  no_common_root_p1_q: yes\n"
            "  satisfied: yes\n"
        )

    def test_check_inadmissible(self, capsys):
        code, out, _ = run(capsys, "check", "x", "x+1")
        assert code == EXIT_PRECONDITION
        assert "  no_common_root_p1_q: no\n  satisfied: no\n" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "x^", "x")
        assert code == EXIT_PARSE_ERROR
        assert "offset 2" in err

    def test_unknown_variable_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "betti", "y^2", "x")
        assert code == EXIT_PARSE_ERROR
        assert "unknown variable" in err

    def test_precondition_from_inadmissible_pair(self, capsys):
        code, _, err = run(capsys, "betti", "x", "x+1")
        assert code == EXIT_PRECONDITION
        assert "not admissible" in err

    def test_precondition_from_constant_input(self, capsys):
        code, _, err = run(capsys, "divisor", "5")
        assert code == EXIT_PRECONDITION
        assert "nonconstant" in err

    def test_bad_rational_constant(self, capsys):
        code, _, err = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                           "--c", "nope")
        assert code == EXIT_PARSE_ERROR
        assert "invalid rational constant" in err

    def test_zero_constant_is_a_precondition(self, capsys):
        code, _, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                         "--c", "0")
        assert code == EXIT_PRECONDITION

    def test_non_ascii_digits_are_a_parse_error(self, capsys):
        for text in ("x^\u00b2", "x^\u0661\u0662", "\u0661/\u0662*x"):
            code, out, err = run(capsys, "check", text, "x")
            assert code == EXIT_PARSE_ERROR, text
            assert out == ""
            assert err.startswith("error: unexpected character")

    def test_natural_over_the_digit_limit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "check", "1" * 4301 + "*x", "x")
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert err == ("error: natural number of 4301 digits exceeds the limit 4300"
                       " (offset 0)\n")

    @pytest.mark.parametrize("value", ["0.5", "1e3", "1_0", " 3/2 x", "x", "1/0",
                                       "nope", "", "2x"])
    def test_constant_outside_the_grammar_is_a_parse_error(self, capsys, value):
        code, out, err = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                             "--c", value)
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert err == f"error: invalid rational constant {value!r} (offset 0)\n"

    @pytest.mark.parametrize("value, rendered", [
        ("-3/2", "-3/2"), ("(1/2)^2", "1/4"), (" 3/2 ", "3/2"), ("2*3 - 1", "5/1"),
    ])
    def test_constant_in_the_grammar_is_accepted(self, capsys, value, rendered):
        code, out, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                           f"--c={value}", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["c"] == rendered


class TestCommands:
    def test_betti_json(self, capsys):
        code, out, _ = run(capsys, "betti", "x^2", "x*(x+2)", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["betti"] == {"b0": 1, "b1": 2, "b2": 4, "s": 2, "t": 2}
        assert payload["schema_version"] == "1"

    def test_charvar_json_components(self, capsys):
        code, out, _ = run(capsys, "charvar", "x^3", "x", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["orbifold_order"] == 3
        assert payload["components"] == [
            {"torsion": ["1/3", "0/1"], "direction": [0, 1]},
            {"torsion": ["2/3", "0/1"], "direction": [0, 1]},
        ]

    def test_report_is_an_alias(self, capsys):
        _, first, _ = run(capsys, "charvar", "x^2", "x", "--format", "json")
        _, second, _ = run(capsys, "report", "x^2", "x", "--format", "json")
        assert first == second

    def test_zahid_matches_explicit_inputs(self, capsys):
        _, direct, _ = run(capsys, "zahid", "5", "3", "--format", "json")
        _, spelled, _ = run(capsys, "charvar", "x^5", "x*(x+2)*(x+3)",
                            "--format", "json")
        assert direct == spelled
        payload = json.loads(direct)
        assert payload["betti"]["b2"] == 6
        assert len(payload["components"]) == 4

    def test_divisor_output(self, capsys):
        code, out, _ = run(capsys, "divisor", "x^4*(x+2)^2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["divisor"]["components"] == [
            {"factor": "x + 2", "multiplicity": 2},
            {"factor": "x", "multiplicity": 4},
        ]
        assert payload["divisor"]["divisor_multiplicity"] == 2

    def test_divisor_renders_integers_past_the_digit_limit(self, capsys):
        # The unit 10^4400 has more digits than str(int) converts on
        # Python 3.11 and later.
        code, out, _ = run(capsys, "divisor", "(10^2200*x+1)^2", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["divisor"]["unit"] == "1" + "0" * 4400 + "/1"

    def test_decompose_found_and_missing(self, capsys):
        code, out, _ = run(capsys, "decompose", "x^4 + 2*x^2 + 1",
                           "--inner-degree", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["decomposition"] == {
            "outer": "x^2 + 2*x + 1",
            "inner": "x^2",
        }
        code, out, _ = run(capsys, "decompose", "x^4 + x + 1",
                           "--inner-degree", "2", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["decomposition"] is None

    def test_decompose_bad_degree_is_a_precondition(self, capsys):
        code, _, err = run(capsys, "decompose", "x^4 + 1", "--inner-degree", "3")
        assert code == EXIT_PRECONDITION
        assert err

    def test_connectivity_certified(self, capsys):
        code, out, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                           "--c", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["certificate"]["status"] == "connected-certified"
        assert payload["certificate"]["singular_locus_finite"] is True
        assert payload["inputs"]["c"] == "1/1"

    def test_connectivity_accepts_fractions(self, capsys):
        for spelling in (["--c=-3/2"], ["--c", "-3/2"]):
            code, out, _ = run(capsys, "connectivity", "x^2", "--m", "2", "--n", "3",
                               *spelling, "--format", "json")
            assert code == EXIT_OK
            assert json.loads(out)["inputs"]["c"] == "-3/2"
        code, _, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                         "--c", "-2", "--quiet")
        assert code == EXIT_OK


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        [],                                                    # no command
        ["frobnicate", "x"],                                   # unknown command
        ["check", "x^2", "x", "--bogus"],                      # unknown option
        ["zahid", "5", "3", "--form", "json"],                 # no abbreviations
        ["zahid", "5"],                                        # missing positional
        ["divisor", "x", "x"],                                 # extra positional
        ["decompose", "x^4+1"],                                # missing option
        ["connectivity", "x", "--m", "2", "--n", "2", "--c"],  # missing value
        ["decompose", "x^4+1", "--inner-degree="],             # empty value
        ["zahid", "five", "3"],                                # non-integer
        ["decompose", "x^4+1", "--inner-degree", "2.0"],       # non-integer
        ["zahid", "5", "3", "--format", "xml"],                # bad --format
        ["check", "x^2", "x", "--quiet=1"],                    # --quiet takes none
        # Integers are an optional - and ASCII digits, which int() is not.
        ["zahid", "1_0", "2"],                                 # underscore
        ["zahid", "\u0663", "2"],                              # Arabic-Indic digit
        ["zahid", " 3 ", "2"],                                 # spaces
        ["connectivity", "x", "--m", "+2", "--n", "2", "--c", "1"],  # plus sign
        ["decompose", "x^4+1", "--inner-degree", "-"],         # no digits
    ])
    def test_malformed_command_line_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE == 2
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: broughton")
        assert error.startswith("error: ")
        if not argv:
            assert error == "error: missing command"

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_the_table(self, capsys, command, flag):
        code, out, err = run(capsys, *filter(None, [command, flag]))
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: broughton")
        if command is None:
            words = list(COMMANDS)
        else:
            _, summary, positionals, options = COMMANDS[command]
            words = [summary, *(name for name, _ in positionals + options)]
        for word in words + ["--format", "--quiet", "--help"]:
            assert word in out, word

    def test_option_spellings_agree(self, capsys):
        spaced = run(capsys, "connectivity", "x", "--m", "2", "--n", "3", "--c", "1",
                     "--format", "json")
        assert spaced[0] == EXIT_OK
        assert run(capsys, "connectivity", "x", "--m=2", "--n=3", "--c=1",
                   "--format=json") == spaced
        # Options before and between the positionals, in any order.
        assert run(capsys, "connectivity", "--format", "json",
                   "--c", "1", "--n", "3", "--m", "2", "x") == spaced
        first = run(capsys, "check", "x^2", "x*(x+2)", "--quiet", "--format", "json")
        assert run(capsys, "check", "--format", "json", "x^2", "--quiet",
                   "x*(x+2)") == first

    def test_a_later_option_overrides_an_earlier_one(self, capsys):
        assert (run(capsys, "zahid", "2", "1", "--format", "json", "--format", "text")
                == run(capsys, "zahid", "2", "1"))

    def test_leading_minus_is_a_positional(self, capsys):
        code, out, err = run(capsys, "check", "-x^2+x", "x")
        assert (code, err) == (EXIT_OK, "")
        assert "  p: -x^2 + x\n" in out
        assert "  satisfied: yes\n" in out
        # A negative zahid parameter is a precondition, not a usage error.
        code, out, err = run(capsys, "zahid", "-3", "2")
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err.startswith("error: ")

    def test_quiet_takes_no_value(self, capsys):
        code, out, err = run(capsys, "check", "x", "x", "--quiet=1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[1] == "error: option --quiet takes no value"

    def test_value_of_an_option_is_the_next_token(self, capsys):
        # --c takes "--quiet" as its value, which is no rational constant.
        code, out, err = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                             "--c", "--quiet")
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert err == "error: invalid rational constant '--quiet' (offset 0)\n"


class TestOutputDiscipline:
    def test_quiet_silences_text_but_not_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "x", "x+1", "--quiet")
        assert code == EXIT_PRECONDITION
        assert out == ""

    def test_quiet_does_not_silence_json(self, capsys):
        code, out, _ = run(capsys, "betti", "x", "x", "--quiet",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["betti"]["b2"] == 2

    def test_only_the_chosen_format_is_built(self, capsys, monkeypatch):
        argv = ("charvar", "x^3", "x*(x+2)")
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        _, text_out, _ = run(capsys, *argv, "--format", "text")

        def other_format(*_):
            raise AssertionError("rendered a format that was not asked for")

        monkeypatch.setattr(report, "render_text", other_format)
        assert run(capsys, *argv, "--format", "json") == (EXIT_OK, json_out, "")
        monkeypatch.setattr(report, "report_mapping", other_format)
        # A quiet text run builds neither.
        assert run(capsys, *argv, "--quiet") == (EXIT_OK, "", "")
        monkeypatch.undo()
        # A text run builds the one mapping once and writes it as text.
        built = []
        real = report.report_mapping
        monkeypatch.setattr(report, "report_mapping",
                            lambda document: built.append(None) or real(document))
        assert run(capsys, *argv, "--format", "text") == (EXIT_OK, text_out, "")
        assert len(built) == 1
        assert text_out == report.render_text(json.loads(json_out)) + "\n"

    @pytest.mark.parametrize("argv, code", [
        (("charvar", "x^3", "x*(x+2)"), EXIT_OK),
        (("charvar", "x", "x+1"), EXIT_PRECONDITION),  # inadmissible
        (("zahid", "10", "3"), EXIT_OK),
    ])
    def test_quiet_report_renders_no_polynomial(self, capsys, monkeypatch, argv, code):
        # The body is computed, so an inadmissible pair still exits 2, but
        # neither p nor q is written.
        def text(*_):
            raise AssertionError("rendered a polynomial in a quiet run")

        monkeypatch.setattr(UniPoly, "text", text)
        monkeypatch.setattr(UniPoly, "__str__", text)
        assert run(capsys, *argv, "--quiet")[:2] == (code, "")

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "zahid", "4", "2", "--format", "json")
        _, second, _ = run(capsys, "zahid", "4", "2", "--format", "json")
        assert first == second

    def test_errors_go_to_stderr_only(self, capsys):
        code, out, err = run(capsys, "betti", "x^", "x")
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        assert err.startswith("error:")


def test_installed_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "broughton.cli", "zahid", "3", "1",
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert payload["orbifold_order"] == 3


def test_text_on_an_ascii_stdout():
    # The text is ASCII, so a stdout that encodes nothing else takes it.
    result = subprocess.run(
        [sys.executable, "-m", "broughton.cli", "zahid", "3", "2", "--format", "text"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONIOENCODING="ascii"),
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert "  - torsion: [1/3, 0/1]\n    direction: [0, 1]\n" in result.stdout


def test_reader_closing_early_exits_141_without_a_traceback():
    # About 170 KB of JSON, more than a pipe holds, so the entry point is
    # still writing when the reader closes after one byte.
    child = subprocess.Popen(
        [sys.executable, "-c", "from broughton.cli import main_entry; main_entry()",
         "connectivity", "9" * 1200 + "*x^3+1", "--m", "3", "--n", "3", "--c", "1",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert child.stderr.read() == b""
    child.stderr.close()
