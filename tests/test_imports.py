"""What importing the package and running one command loads.

Each command line runs in a fresh interpreter that writes no bytecode
cache, as a ``broughton`` process does where sources are not precompiled,
and reports the modules that importing ``broughton.cli`` and running the
command added to ``sys.modules``.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import broughton

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from broughton.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print()\n"
    "print(code, *sorted(set(sys.modules) - before))\n"
)

COMMANDS = {
    "check": ["x^2", "x*(x+2)"],
    "betti": ["x^2", "x*(x+2)"],
    "charvar": ["x^3", "x*(x+2)"],
    "report": ["x^3", "x*(x+2)"],
    "divisor": ["(x+1)^2*x"],
    "zahid": ["4", "2"],
    "decompose": ["x^4+2*x^2+1", "--inner-degree", "2"],
    "connectivity": ["x^2+1", "--m", "2", "--n", "3", "--c=-2"],
}
REPORTING = ("check", "betti", "charvar", "report", "divisor", "zahid")


def last_line(code, *argv):
    """Last stdout line of ``python -c code argv`` run on this checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return child.stdout.splitlines()[-1]


def loaded_by(*argv):
    """Exit code and the modules a fresh ``broughton`` process added."""
    code, *modules = last_line(CHILD, *argv).split()
    return int(code), set(modules)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_what_it_runs(command, fmt):
    code, modules = loaded_by(command, *COMMANDS[command], "--format", fmt)
    assert code == 0
    assert "dataclasses" not in modules
    # The command line is parsed from one table, without argparse.
    assert not {"argparse", "gettext"} & modules
    assert "broughton.report" in modules
    if command in REPORTING:
        assert "broughton.arrangement" in modules
        assert "broughton.bipoly" not in modules
        assert "broughton.decompose" not in modules
    else:
        assert "broughton.decompose" in modules
        assert "broughton.arrangement" not in modules
        assert "broughton.squarefree" not in modules
        # Only the certificate runs bivariate code.
        assert ("broughton.bipoly" in modules) == (command == "connectivity")
    # Integer gcds settle every gcd and squarefree decomposition of these
    # small inputs, the divisor's (x+1)^2 included, so no command loads
    # the modular helpers.  The certificate's norm needs no prime.
    assert "broughton.modular" not in modules
    assert ("json" in modules) == (fmt == "json")


def test_coefficients_above_the_cut_load_the_modular_helpers():
    # The x-free part of q and its derivative both have coefficients past
    # 2**320, beyond the integer gcd's cut, so q's squarefree decomposition
    # runs Yun's algorithm modulo primes.
    code, modules = loaded_by("charvar", "x^3", "x*(10^100*x+1)*(10^100*x+3)")
    assert code == 0
    assert "broughton.modular" in modules


def test_powers_of_x_load_no_modular_helpers():
    # Every gcd and squarefree decomposition of p = x^3 and q = x splits
    # the power of x off first, and what is left is a constant.
    code, modules = loaded_by("charvar", "x^3", "x")
    assert code == 0
    assert "broughton.squarefree" in modules
    assert "broughton.modular" not in modules


def test_parse_error_loads_only_the_parser():
    # Not the modular helpers either: a parse error, or a malformed command
    # line, never compiles them.
    for argv, expected in ((["check", "x^", "x"], 1), (["zahid", "5"], 2)):
        code, modules = loaded_by(*argv)
        assert code == expected
        assert {name for name in modules if name.startswith("broughton")} == {
            "broughton",
            "broughton.cli",
            "broughton.parser",
            "broughton.unipoly",
        }
        assert not {"dataclasses", "argparse", "gettext"} & modules


# The names the package exports, by the submodule that defines them.
EXPORTS = {
    "arrangement": (
        "BettiNumbers", "CharVarietyReport", "FiberDivisor", "Hypotheses",
        "HypothesesViolated", "TorsionCharacter", "TranslatedTorus", "betti",
        "characteristic_variety", "check_hypotheses", "special_fiber_divisor",
    ),
    "bipoly": (),
    "decompose": (
        "CONNECTED_CERTIFIED", "INCONCLUSIVE", "ConnectivityCertificate",
        "Decomposition", "connectivity_certificate", "is_decomposable",
        "uni_decompose_at",
    ),
    "parser": (
        "ExponentRangeError", "ParseError", "UnknownVariableError", "parse_uni",
    ),
    "report": (
        "ReportDocument", "SCHEMA_VERSION", "build_report", "render_json",
        "render_text", "report_mapping", "zahid_polynomials",
    ),
    "squarefree": ("SquarefreeDecomposition", "squarefree_decompose"),
    "unipoly": ("NEG_INF", "UniPoly", "exact_div", "gcd"),
}

# Names the package no longer has, with what replaces each: second routes
# to an invariant (CharVarietyReport.resonance_trivial; the irreducibility
# flags of characteristic_variety; SquarefreeDecomposition.radical() and
# .multiplicity_gcd; resultant_y), the bivariate
# ring and its parser (int lists inside the certificate's norm; no
# bivariate parser), the singular-locus wrapper (connectivity_certificate),
# the canonical printer (str), the integer Bareiss route of resultant_y (the
# modular kernel; the old route is an oracle in tests/oracles.py), the gcd's
# prime and CRT helpers (moved to broughton.modular), the full surface h and
# its degree-bound walk (the certificate factors both eliminants instead; the
# dict oracles in tests/oracles.py build h) and the resultant kernel, which
# moved from broughton.modular to the certificate's own broughton.bipoly so
# that a gcd compiles only its helpers; there the batched Euclid, its point
# partition, the Sylvester-matrix fallback and the join of several primes
# gave way to one pointwise Euclid at formal degrees modulo one prime, and
# the two layers between resultant_y and that kernel were folded into
# resultant_y, which also took unipoly's _integer_columns.  The Chinese
# remainder step _crt was folded into modular's one lift, _lift, which the
# gcd and the squarefree decomposition share.  The command line's argparse
# builder gave way to the table broughton.cli.COMMANDS.  unipoly's _constants
# went once the certificate built its resultant columns from integer
# numerators itself.  The certificate's two general resultants in y, the
# second one Res_v(chi, G), gave way to one norm over Q[y], with no bound,
# prime or interpolation: the record BiPoly, resultant_y and the whole
# Mersenne kernel went (the integer and Fraction resultants stay as oracles
# in tests/oracles.py).  orbifold_group, a third route to the power index
# d, gave way to special_fiber_divisor(p).divisor_multiplicity, which the
# report reads as its orbifold_order.
REMOVED = {
    "arrangement": ("resonance", "orbifold_group"),
    "cli": ("_build_parser",),
    "bipoly": (
        "build_f", "build_g", "is_irreducible_y_linear", "X", "Y", "BI_ZERO",
        "BI_ONE", "SingularLocusCheck", "singular_locus_finite", "_eliminant",
        "_bareiss_determinant", "_interpolate_naturals", "_sylvester_rows",
        "_horner", "build_h", "_x_degree_bound", "_euclid_resultants", "_take",
        "_sylvester_determinant", "_resultant_by_primes", "mersenne_exponents",
        "integer_resultant", "_resultant_modulo", "BiPoly", "resultant_y",
        "_integer_columns", "MERSENNE_EXPONENTS", "mersenne_exponent",
        "hadamard_square", "_resultant_values", "_euclid_resultant", "_interpolate",
    ),
    "modular": (
        "MERSENNE_EXPONENTS", "mersenne_exponents", "hadamard_square",
        "integer_resultant", "_resultant_by_primes", "_resultant_values",
        "_take", "_euclid_resultants", "_sylvester_determinant", "_interpolate",
        "_crt",
    ),
    "parser": ("parse_bi", "print_canonical"),
    "squarefree": ("PowerIndex", "distinct_root_count", "power_index", "radical"),
    "unipoly": ("resultant", "_prime", "_is_prime", "_gcd_mod", "_crt", "_integer_columns",
                "_constants"),
}


def test_lazy_exports_match_the_submodules():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(broughton.__all__) == sorted(names)
    assert set(names) <= set(dir(broughton))
    for module_name, group in EXPORTS.items():
        module = importlib.import_module(f"broughton.{module_name}")
        assert getattr(broughton, module_name) is module
        for name in group:
            assert getattr(broughton, name) is getattr(module, name), name

    namespace = {}
    exec("from broughton import *", namespace)
    for name in names:
        assert namespace[name] is getattr(broughton, name), name

    with pytest.raises(AttributeError):
        broughton.no_such_name
    with pytest.raises(ImportError):
        exec("from broughton import no_such_name", {})
    assert broughton.__version__ == "0.1.0"


# Names the package no longer exports but their module keeps: bipoly's norm
# checks nothing, and connectivity_certificate, which checks its inputs, is
# the one public entry to it.  modular keeps only what the gcd and the
# squarefree decomposition call.
INTERNAL = {
    "bipoly": ("critical_norm",),
    "modular": ("_prime", "_is_prime", "_gcd_mod", "_yun_mod", "_derivative_mod",
                "_difference_mod", "_quotient_mod", "_lift", "_rational"),
}


@pytest.mark.parametrize(
    "module_name, name",
    [(module_name, name)
     for table in (REMOVED, INTERNAL)
     for module_name, names in table.items()
     for name in names],
)
def test_removed_names_are_gone(module_name, name):
    module = importlib.import_module(f"broughton.{module_name}")
    with pytest.raises(AttributeError):
        getattr(broughton, name)
    with pytest.raises(ImportError):
        exec(f"from broughton import {name}", {})
    assert name not in broughton.__all__
    if name in INTERNAL.get(module_name, ()):
        assert callable(getattr(module, name))
    else:
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_bipoly_keeps_no_calculus_of_the_surface():
    # The certificate never builds h, so bipoly differentiates nothing,
    # exchanges no variables and takes no general resultant: it defines one
    # norm and the int and matrix helpers under it, and no record.
    from broughton import bipoly
    defined = {name for name, value in vars(bipoly).items()
               if getattr(value, "__module__", None) == bipoly.__name__}
    assert defined == {"critical_norm", "_norm", "_mul", "_reduce", "_determinant"}
    assert not any("resultant" in name for name in vars(bipoly))


def test_unipoly_has_no_composition():
    # No command composes polynomials; tests use the oracle l_compose.
    from broughton.unipoly import UniPoly
    assert not hasattr(UniPoly, "compose")


def test_unipoly_keeps_one_polynomial_division():
    # exact_div over the integers is the one division; divmod, // and %
    # are not defined on polynomials.
    from broughton.unipoly import X
    for divide in (divmod, lambda a, b: a // b, lambda a, b: a % b):
        with pytest.raises(TypeError):
            divide(X, X)


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys\n"
        "import broughton\n"
        "print(*sorted(m for m in sys.modules if m.startswith('broughton')))\n"
    )
    assert last_line(code) == "broughton"
