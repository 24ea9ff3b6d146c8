"""Command-line interface.

Exit codes: 0 on success, 1 when a polynomial or rational argument fails
to parse, 2 when a precondition is violated (inadmissible pair, constant
input, bad degree or exponent arguments, a resultant bound past the prime
table), 3 when a connectivity certificate comes back inconclusive, and
141 (128 + SIGPIPE) when the reader closes standard output early.

Output is text by default; ``--format json`` prints a deterministic JSON
document instead, and ``--quiet`` silences the text rendering (exit codes
and JSON are unaffected).  Only the chosen format is built: a JSON run
never renders the text lines, a text run never builds the mapping, and a
quiet text run renders nothing.

Each process loads only what its command runs.  At import this module
pulls in the parser and the univariate layer, which every command needs;
each ``cmd_*`` imports the rest after parsing its arguments, so a parse
error loads nothing more.  decompose and connectivity never load the
arrangement layer, only connectivity loads ``bipoly``, the report
commands never load ``decompose``, and ``json`` is loaded only to render
JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

from .parser import ParseError, parse_uni

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141


def _emit(args, mapping, text_lines) -> None:
    """Print a command's output in the chosen format.

    ``mapping`` and ``text_lines`` are zero-argument callables that build
    the JSON mapping and the text lines; only the one for ``--format``
    runs, and with ``--quiet`` text neither does.
    """
    if args.format == "json":
        from .report import render_json

        print(render_json(mapping()))
    elif not args.quiet:
        print("\n".join(text_lines()))


def cmd_check(args) -> int:
    p = parse_uni(args.p)
    q = parse_uni(args.q)
    from .arrangement import check_hypotheses
    from .report import command_mapping, hypotheses_text

    hypotheses = check_hypotheses(p, q)
    _emit(
        args,
        lambda: command_mapping(
            "check",
            {"p": str(p), "q": str(q)},
            hypotheses=hypotheses._asdict(),
        ),
        lambda: hypotheses_text(hypotheses),
    )
    return EXIT_OK if hypotheses.satisfied else EXIT_PRECONDITION


def cmd_betti(args) -> int:
    p = parse_uni(args.p)
    q = parse_uni(args.q)
    from .arrangement import betti
    from .report import betti_text, command_mapping

    numbers = betti(p, q)
    _emit(
        args,
        lambda: command_mapping(
            "betti",
            {"p": str(p), "q": str(q)},
            betti=numbers._asdict(),
        ),
        lambda: [betti_text(numbers)],
    )
    return EXIT_OK


def cmd_charvar(args) -> int:
    p = parse_uni(args.p)
    q = parse_uni(args.q)
    from .report import build_report, render_text, report_mapping

    document = build_report(p, q)
    _emit(args, lambda: report_mapping(document), lambda: [render_text(document)])
    return EXIT_OK


def cmd_zahid(args) -> int:
    from .report import build_report, render_text, report_mapping, zahid_polynomials

    document = build_report(*zahid_polynomials(args.p_exponent, args.q_factors))
    _emit(args, lambda: report_mapping(document), lambda: [render_text(document)])
    return EXIT_OK


def cmd_divisor(args) -> int:
    p = parse_uni(args.p)
    from .arrangement import special_fiber_divisor
    from .report import command_mapping, divisor_mapping, divisor_text

    divisor = special_fiber_divisor(p)
    _emit(
        args,
        lambda: command_mapping(
            "divisor", {"p": str(p)}, divisor=divisor_mapping(divisor)
        ),
        lambda: [
            f"special fiber at -1: {divisor_text(divisor)}",
            f"divisor multiplicity: {divisor.divisor_multiplicity}",
        ],
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    p = parse_uni(args.p)
    from .decompose import uni_decompose_at
    from .report import command_mapping

    result = uni_decompose_at(p, args.inner_degree)

    def mapping():
        return command_mapping(
            "decompose",
            {"p": str(p)},
            inner_degree=args.inner_degree,
            decomposition=None
            if result is None
            else {
                "outer": str(result.outer),
                "inner": str(result.inner),
            },
        )

    def lines():
        if result is None:
            return [f"no decomposition with inner degree {args.inner_degree}"]
        return [
            f"outer: {result.outer}",
            f"inner: {result.inner}",
        ]

    _emit(args, mapping, lines)
    return EXIT_OK


def cmd_connectivity(args) -> int:
    p = parse_uni(args.p)
    try:
        constant = parse_uni(args.c)
    except ParseError:
        constant = None
    if constant is None or not constant.is_constant():
        raise ParseError(f"invalid rational constant {args.c!r}", 0)
    c = constant.coefficient(0)
    from .decompose import connectivity_certificate
    from .report import _rat, command_mapping

    certificate = connectivity_certificate(p, args.m, args.n, c)
    r_x, r_y = certificate.eliminants
    _emit(
        args,
        lambda: command_mapping(
            "connectivity",
            {"p": str(p), "m": args.m, "n": args.n, "c": _rat(c)},
            certificate={
                "status": certificate.status,
                "singular_locus_finite": certificate.singular_finite,
                "eliminant_x": str(r_x),
                "eliminant_y": str(r_y),
                "notes": certificate.notes,
            },
        ),
        lambda: [
            f"status: {certificate.status}",
            f"singular locus finite: {certificate.singular_finite}",
            f"eliminants: {r_x} ; {r_y}",
        ],
    )
    return EXIT_OK if certificate.singular_finite else EXIT_INCONCLUSIVE


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--quiet", action="store_true",
        help="suppress text output; exit codes and JSON are unaffected",
    )

    parser = argparse.ArgumentParser(
        prog="broughton",
        description="Exact invariants of generalized Broughton curve arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[common],
                        help="test the admissibility hypotheses on (p, q)")
    sp.add_argument("p")
    sp.add_argument("q")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("betti", parents=[common],
                        help="Betti numbers of the arrangement complement")
    sp.add_argument("p")
    sp.add_argument("q")
    sp.set_defaults(func=cmd_betti)

    for name, help_text in (
        ("charvar", "full characteristic-variety report for (p, q)"),
        ("report", "alias of charvar"),
    ):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("p")
        sp.add_argument("q")
        sp.set_defaults(func=cmd_charvar)

    sp = sub.add_parser("divisor", parents=[common],
                        help="multiple-fiber divisor of the pencil at -1")
    sp.add_argument("p")
    sp.set_defaults(func=cmd_divisor)

    sp = sub.add_parser("decompose", parents=[common],
                        help="functional decomposition at a given inner degree")
    sp.add_argument("p")
    sp.add_argument("--inner-degree", type=int, required=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("connectivity", parents=[common],
                        help="connectivity certificate for the auxiliary surface")
    sp.add_argument("p")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", required=True,
                    help="nonzero constant in the polynomial expression "
                         "grammar, e.g. -2, 3/2 or (1/2)^2; spell negative "
                         "fractions as --c=-3/2")
    sp.set_defaults(func=cmd_connectivity)

    sp = sub.add_parser("zahid", parents=[common],
                        help="report for the standard family x^a, x*(x+2)*...*(x+b)")
    sp.add_argument("p_exponent", type=int)
    sp.add_argument("q_factors", type=int)
    sp.set_defaults(func=cmd_zahid)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, ZeroDivisionError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PRECONDITION


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device so that the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
