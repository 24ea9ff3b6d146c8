"""Frozen CLI output: every command, both formats.

``golden/cli_stdout.json`` holds the exact stdout, stderr and exit code of
each command line in ``GRID``.  Replaying the file guards the promise that
refactors of the invariant pipeline and of the resultant kernel behind
``connectivity`` leave the output byte-identical.

Regenerate the file only for an announced output change:

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

Run as a script with any other arguments, or none, it writes nothing and
exits with status 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from broughton.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"

# (p, q) pairs: admissible with d = 1, 2, 3, a unit and repeated roots of q,
# irrational factors, then the two ways to be inadmissible.
PAIRS = (
    ("x^2", "x*(x+2)"),
    ("x^3*(x-1)^3", "x*(x+3)"),
    ("2*x^2*(x+1/2)^4", "x^2*(x-1)"),
    ("3/2*x*(x-1)", "x*(x+5)^2"),
    ("(x^2-2)^2", "x^2-2"),
    ("x", "x+1"),
    ("x", "x*(x+1)"),
)
ZAHID = ((1, 1), (2, 3), (4, 2), (6, 4))
# The last divisor expands to degree 65 with 7^40 denominators, so its
# products span many bytes per coefficient.
DIVISORS = ("x^2", "(x+1)^4*(x-2)^2", "2*(x^2+1)^3*x^6", "x^3-x", "5",
            "(x-3/7)^40*(2*x+5)^25")
# (p, m, n, c) for connectivity: integer and rational p and c, m, n <= 3,
# then m = 1, which the certificate rejects; then a cubic over the
# denominator 12 with a negative lead and a negative rational c, and a
# linear p, whose two resultants have diagonal Sylvester matrices.
CONNECTIVITY = (
    ("x", 2, 2, "1"),
    ("x^2+1", 2, 3, "-2"),
    ("1/2*x-3", 3, 2, "3/2"),
    ("x^2-x", 3, 3, "-1/3"),
    ("2*x^2", 3, 3, "5"),
    ("x", 1, 2, "1"),
    ("1/6+2/3*x-5/4*x^3", 2, 3, "-7/3"),
    ("3/2*x-5", 5, 4, "2/7"),
)
# (p, inner degree) for decompose: two hits, a miss, a degree that does
# not divide deg p, then a rational hit with outer degree 4.
DECOMPOSE = (
    ("x^4+2*x^2+1", 2),
    ("(x^3-1/2*x)^2+3", 3),
    ("x^4+x", 2),
    ("x^4+1", 3),
    ("(x^2-2/3*x)^4 - 5/2*(x^2-2/3*x) + 1", 2),
)
FORMATS = ("json", "text")


def grid():
    for fmt in FORMATS:
        for command in ("check", "betti", "charvar", "report"):
            for p, q in PAIRS:
                yield [command, p, q, "--format", fmt]
        for a, b in ZAHID:
            yield ["zahid", str(a), str(b), "--format", fmt]
        for p in DIVISORS:
            yield ["divisor", p, "--format", fmt]
        for p, m, n, c in CONNECTIVITY:
            yield ["connectivity", p, "--m", str(m), "--n", str(n), f"--c={c}",
                   "--format", fmt]
        for p, e in DECOMPOSE:
            yield ["decompose", p, "--inner-degree", str(e), "--format", fmt]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_grid():
    assert [entry["argv"] for entry in load()] == list(grid())


def test_golden_has_every_exit_kind():
    codes = {(entry["argv"][0], entry["exit"]) for entry in load()}
    for command in ("check", "betti", "charvar", "connectivity", "decompose"):
        assert (command, 0) in codes and (command, 2) in codes


def test_cli_output_is_byte_identical():
    for entry in load():
        assert run(entry["argv"]) == entry, " ".join(entry["argv"])


WORDS = {None: "none", True: "yes", False: "no"}


def leaves(value, key=None):
    """(key, value) for every scalar in a JSON document; key is None in a list."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from leaves(item, name)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item)
    else:
        yield key, value


def test_text_writes_every_leaf_of_the_json_document():
    entries = load()
    half = len(entries) // 2
    for as_json, as_text in zip(entries[:half], entries[half:]):
        assert as_text["argv"] == as_json["argv"][:-1] + ["text"]
        text = as_text["stdout"]
        assert text.isascii(), " ".join(as_text["argv"])
        if not as_json["stdout"]:
            assert text == ""
            continue
        for key, value in leaves(json.loads(as_json["stdout"])):
            word = (WORDS[value] if value is None or isinstance(value, bool)
                    else str(value))
            assert (word if key is None else f"{key}: {word}") in text, (key, value)


def test_script_rewrites_the_file_only_on_request():
    before = GOLDEN.read_bytes()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    for argv in (["--help"], [], ["--regenerate", "extra"]):
        child = subprocess.run([sys.executable, __file__, *argv], capture_output=True,
                               text=True, env=env, timeout=60)
        assert child.returncode == 2, argv
        assert "--regenerate" in child.stderr
        assert GOLDEN.read_bytes() == before


def script(argv) -> int:
    if argv != ["--regenerate"]:
        print(f"usage: {Path(__file__).name} --regenerate\n"
              f"rewrites {GOLDEN.name} from the current code; nothing else is accepted",
              file=sys.stderr)
        return 2
    GOLDEN.write_text(
        json.dumps([run(argv) for argv in grid()], indent=2, ensure_ascii=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
