"""Command-line interface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from broughton.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_PRECONDITION,
    main,
)
from broughton import bipoly, report
from broughton.unipoly import ZERO


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_admissible(self, capsys):
        code, out, _ = run(capsys, "check", "x^2", "x*(x+2)")
        assert code == EXIT_OK
        assert "admissible: yes" in out

    def test_check_inadmissible(self, capsys):
        code, out, _ = run(capsys, "check", "x", "x+1")
        assert code == EXIT_PRECONDITION
        assert "admissible: no" in out

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

    def test_inconclusive_certificate(self, capsys, monkeypatch):
        # No accepted parameters reach this branch, so the eliminant r_y is
        # forced to vanish through its resultant Res_v(chi, G), the second
        # resultant_y call; the real certificate then decides the verdict.
        real = bipoly.resultant_y
        calls = []

        def second_vanishes(a, b):
            calls.append(None)
            return ZERO if len(calls) == 2 else real(a, b)

        monkeypatch.setattr(bipoly, "resultant_y", second_vanishes)
        code, out, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                           "--c", "1")
        assert code == EXIT_INCONCLUSIVE
        assert "status: inconclusive" in out
        assert "singular locus finite: False" in out

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
        # Negative fractions need the --c=value spelling under argparse.
        code, out, _ = run(capsys, "connectivity", "x^2", "--m", "2", "--n", "3",
                           "--c=-3/2", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["c"] == "-3/2"
        code, _, _ = run(capsys, "connectivity", "x", "--m", "2", "--n", "2",
                         "--c", "-2", "--quiet")
        assert code == EXIT_OK


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
        monkeypatch.setattr(report, "report_mapping", other_format)
        assert run(capsys, *argv, "--format", "text") == (EXIT_OK, text_out, "")

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
