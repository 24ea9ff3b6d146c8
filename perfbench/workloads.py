"""Seeded workloads: input generation, the timed op, and its check.

Each workload turns a seed into a list of JSON-ready input records (the
only thing that reaches the program), runs one record per op through the
public API or the ``broughton`` command line, and checks every result
against facts planted in the record or computed here independently of
the package (closed forms, pointwise resultants).

Inputs are stratified: a fixed number of draws from fixed cells of the
parameter space, so that every seed yields the same cost profile and
only the concrete numbers change.  Record order is shuffled by the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def inputs_digest(records) -> str:
    """sha256 over the canonical JSON of an input list.  hashlib loads
    OpenSSL (3.5 MiB of RSS), so it is imported only here, and timed runs
    call this after their last op."""
    import hashlib

    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- exact helpers shared by generators and checks ---------------------------
# Polynomials here are low-to-high lists of Fractions, independent of the
# package's own UniPoly.

def rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _num(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else rat(value)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _eval(a, t):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _linear_text(root: Fraction) -> str:
    if not root:
        return "x"
    return f"x - {_num(root)}" if root > 0 else f"x + {_num(-root)}"


def _product_text(unit: Fraction, roots) -> str:
    """unit * prod (x - r)^m as an expression string."""
    factors = [f"({_linear_text(r)})^{m}" for r, m in roots]
    prefix = "" if unit == 1 else f"{_num(unit)}*"
    return prefix + "*".join(factors)


def _poly_text(coeffs) -> str:
    """Expression string for a low-to-high coefficient list."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        power = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        mag = abs(c)
        body = _num(mag) if not power else (power if mag == 1 else f"{_num(mag)}*{power}")
        terms.append((c < 0, body))
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for negative, body in terms[1:]:
        text += (" - " if negative else " + ") + body
    return text


def _grouped_factors(roots):
    """Expected squarefree parts: (monic product of roots, multiplicity)."""
    by_mult = {}
    for r, m in roots:
        by_mult.setdefault(m, []).append(r)
    out = []
    for m in sorted(by_mult):
        factor = [Fraction(1)]
        for r in by_mult[m]:
            factor = _mul(factor, [-r, Fraction(1)])
        out.append((tuple(factor), m))
    return out


def _distinct_rationals(rng, count):
    seen = []
    while len(seen) < count:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        if value not in seen:
            seen.append(value)
    return seen


def _rational(rng, num=7, den=7):
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
    return value


def _parts_match(parts, expected) -> bool:
    got = [(tuple(factor.coeffs), multiplicity) for factor, multiplicity in parts]
    return got == expected


# -- zahid_sweep --------------------------------------------------------------

class ZahidSweep:
    """build_report + render_json on the standard family x^a, x(x+2)...(x+b)."""

    name = "zahid_sweep"
    in_process = True
    anchors = {"zahid_30_10": [30, 10], "zahid_60_20": [60, 20],
               "zahid_120_30": [120, 30]}
    warmup = [[3, 2]]

    def bind(self):
        from broughton import build_report, render_json, report_mapping, zahid_polynomials
        self._api = (build_report, render_json, report_mapping, zahid_polynomials)

    def generate(self, rng):
        # 5 x 5 cells of (a, b), four distinct pairs from each, plus the
        # ROADMAP anchors; costs run from ~5 ms to ~3.5 s.
        pairs = []
        anchors = list(self.anchors.values())
        for a_lo in range(2, 42, 8):
            for b_lo in range(1, 16, 3):
                cell = [[a, b] for a in range(a_lo, a_lo + 8) for b in range(b_lo, b_lo + 3)
                        if [a, b] not in anchors]
                pairs.extend(rng.sample(cell, 4))
        pairs.extend(anchors)
        rng.shuffle(pairs)
        return pairs

    def run(self, record):
        build_report, render_json, report_mapping, zahid_polynomials = self._api
        p, q = zahid_polynomials(*record)
        return render_json(report_mapping(build_report(p, q)))

    def check(self, record, text) -> bool:
        a, b = record
        doc = json.loads(text)
        return (
            doc["hypotheses"] == {"common_root_pq": True, "no_common_root_p1_q": True,
                                  "satisfied": True}
            and doc["betti"] == {"b0": 1, "b1": 2, "b2": 2 * b, "s": b, "t": b}
            and doc["orbifold_order"] == a
            and doc["components"] == [
                {"torsion": [rat(Fraction(j, a)), "0/1"], "direction": [0, 1]}
                for j in range(1, a)
            ]
            and doc["divisor"] == {"value": "-1/1", "unit": "1/1",
                                   "components": [{"factor": "x", "multiplicity": a}],
                                   "divisor_multiplicity": a}
            and doc["irreducibility"] == {"f": True, "g": True}
        )


# -- connectivity_sweep -------------------------------------------------------

def _random_p(rng, degree, integer):
    """Coefficients all nonzero and of similar size, since a zero or a large
    coefficient moves an op's cost far more than its cell does."""
    if integer:
        return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(degree + 1)]
    return [Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((2, 4))) for _ in range(degree + 1)]


def _h_terms(p, m, n, c):
    """h = (p(x) y - 1)^m + c y^n as {(x power, y power): coefficient}."""
    h = {}
    for k in range(m + 1):
        scale = math.comb(m, k) * (-1) ** (m - k)
        for i, coeff in enumerate(_pow(p, k)):
            if coeff:
                h[(i, k)] = h.get((i, k), 0) + scale * coeff
    h[(0, n)] = h.get((0, n), 0) + c
    return {key: value for key, value in h.items() if value}


def _partial(h, axis):
    out = {}
    for (i, j), value in h.items():
        power = (i, j)[axis]
        if power:
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = power * value
    return out


def _specialize(h, axis, point):
    """Substitute ``point`` for one variable; low-to-high list in the other.

    Returns None when the degree in the kept variable drops, since the
    resultant does not commute with such a specialization.
    """
    keep = 1 - axis
    degree = max(key[keep] for key in h)
    out = [Fraction(0)] * (degree + 1)
    for key, value in h.items():
        out[key[keep]] += value * Fraction(point) ** key[axis]
    return out if out[-1] else None


def _sylvester_det(a, b) -> Fraction:
    """Determinant of the Sylvester matrix of a, b (a-block on top), by
    Gaussian elimination over the rationals."""
    da, db = len(a) - 1, len(b) - 1
    size = da + db
    rows = []
    for shift in range(db):
        row = [Fraction(0)] * size
        row[shift:shift + da + 1] = a[::-1]
        rows.append(row)
    for shift in range(da):
        row = [Fraction(0)] * size
        row[shift:shift + db + 1] = b[::-1]
        rows.append(row)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, size):
            factor = rows[i][k] / rows[k][k]
            if factor:
                for j in range(k, size):
                    rows[i][j] -= factor * rows[k][j]
    return det


def _pointwise_eliminants(p, m, n, c, points=3):
    """Res_y(h_x, h_y)(x0) and Res_x(h_x, h_y)(y0) at a few integer points."""
    h = _h_terms(p, m, n, c)
    hx, hy = _partial(h, 0), _partial(h, 1)
    values = ([], [])
    for axis, out in ((0, values[0]), (1, values[1])):
        t = 2
        while len(out) < points:
            a, b = _specialize(hx, axis, t), _specialize(hy, axis, t)
            if a is not None and b is not None:
                out.append((t, _sylvester_det(a, b)))
            t += 1
    return values


class ConnectivitySweep:
    """connectivity_certificate on (p(x) y - 1)^m + c y^n."""

    name = "connectivity_sweep"
    in_process = True
    anchors = {"conn_x2p1_5_5": [["1/1", "0/1", "1/1"], 5, 5, "1/1"]}
    warmup = [[["1/1", "1/1"], 2, 2, "1/1"]]

    def bind(self):
        from broughton import UniPoly, connectivity_certificate
        self._api = (UniPoly, connectivity_certificate)

    def generate(self, rng):
        # Cost grows with m * deg p and with coefficient size, so the cells
        # keep m * deg p <= 6, mix integer and rational coefficients, and
        # take one c instead of three where an op costs over ~100 ms.  The
        # anchor (x^2 + 1, 5, 5) stands alone above that.
        all_c = (0, 1, 2)
        cells = [(1, m, n, m == 5 or (m + n) % 2 == 0, (n % 3,) if m == 5 else all_c)
                 for m in range(2, 6) for n in range(2, 6)]
        cells += [(1, 2, n, False, all_c) for n in (3, 5)]
        cells += [(1, 3, n, True, all_c) for n in (3, 5)]
        cells += [(2, 2, n, integer, all_c) for n in range(2, 6) for integer in (True, False)]
        cells += [(2, 3, n, n % 2 == 0, (n % 3,)) for n in range(2, 6)]
        cells += [(3, 2, n, n % 2 == 0, all_c) for n in range(2, 6)]
        constants = (Fraction(1), Fraction(-2), Fraction(3, 2))
        records = []
        for degree, m, n, integer, picks in cells:
            for pick in picks:
                p = _random_p(rng, degree, integer)
                records.append([[rat(v) for v in p], m, n, rat(constants[pick])])
        records.extend(self.anchors.values())
        rng.shuffle(records)
        return records

    def run(self, record):
        UniPoly, connectivity_certificate = self._api
        p, m, n, c = record
        return connectivity_certificate(UniPoly([Fraction(v) for v in p]), m, n, Fraction(c))

    def check(self, record, certificate) -> bool:
        p, m, n, c = record
        p = [Fraction(v) for v in p]
        expected = _pointwise_eliminants(p, m, n, Fraction(c))
        for eliminant, samples in zip(certificate.eliminants, expected):
            if any(_eval(list(eliminant.coeffs), t) != value for t, value in samples):
                return False
        finite = all(eliminant.coeffs for eliminant in certificate.eliminants)
        status = "connected-certified" if finite else "inconclusive"
        return certificate.status == status and certificate.singular_finite == finite


# -- rational_mix -------------------------------------------------------------

class RationalMix:
    """Parsed expressions with planted structure: check -> charvar on
    admissible pairs, decompose on composites H(Q), divisor on high powers."""

    name = "rational_mix"
    in_process = True
    anchors = {"parse_x1_200_x37_100": ["divisor", "(x + 1)^200*(x - 3/7)^100", "1/1",
                                        [["-1/1", 200], ["3/7", 100]]]}
    warmup = [["pair", "(x)^2", "x*(x + 2)", "1/1", [["0/1", 2]], [["0/1", 1], ["-2/1", 1]]],
              ["decompose", "(x^2)^2 + 2*(x^2) + 1", 2, ["1/1", "2/1", "1/1"],
               ["0/1", "0/1", "1/1"]]]

    def bind(self):
        from broughton import (build_report, check_hypotheses, parse_uni, render_json,
                               report_mapping, special_fiber_divisor, uni_decompose_at)
        self._api = (build_report, check_hypotheses, parse_uni, render_json,
                     report_mapping, special_fiber_divisor, uni_decompose_at)

    # Planted shapes, each drawn five times per pass with fresh roots and
    # coefficients.  Pairs: multiplicities of p's roots and the number of
    # q's own roots.  Composites: (deg Q, deg H).  Powers: multiplicities.
    PAIR_SHAPES = (((1, 2), 2), ((2, 4), 3), ((1, 2, 3), 2), ((3, 6), 3),
                   ((2, 4, 6), 2), ((4, 4, 8), 3), ((5, 10), 1), ((3, 6, 9), 2))
    COMPOSITE_SHAPES = ((2, 2), (2, 4), (3, 3), (2, 6), (4, 2), (3, 5), (5, 3), (4, 4))
    POWER_SHAPES = ((10, 20), (9, 15, 6), (20, 12), (25, 10, 15), (16, 24))

    @staticmethod
    def pair(rng, shape):
        p_mults, q_own = shape
        roots = _distinct_rationals(rng, len(p_mults) + q_own)
        p_roots = list(zip(roots, p_mults))
        unit = _rational(rng)
        p_poly = [unit]
        for r, mult in p_roots:
            p_poly = _mul(p_poly, _pow([-r, Fraction(1)], mult))
        # q shares the first root of p and no root with p + 1.
        q_roots = [(roots[0], 1)] + [(r, 1 + i % 2) for i, r in enumerate(roots[len(p_mults):])
                                     if _eval(p_poly, r) != -1]
        return ["pair", _product_text(unit, p_roots), _product_text(Fraction(1), q_roots),
                rat(unit), [[rat(r), m] for r, m in p_roots], [[rat(r), m] for r, m in q_roots]]

    @staticmethod
    def composite(rng, shape):
        e, r = shape
        inner = [Fraction(0)] + [_rational(rng, 5, 5) for _ in range(e - 1)] + [Fraction(1)]
        outer = [_rational(rng, 5, 5) for _ in range(r + 1)]
        inner_text = _poly_text(inner)
        terms = []
        for i in range(r, -1, -1):
            c = outer[i]
            body = _num(abs(c)) if i == 0 else f"{_num(abs(c))}*({inner_text})^{i}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms)
        text = text[2:] if text.startswith("+ ") else "-" + text[2:]
        return ["decompose", text, e, [rat(v) for v in outer], [rat(v) for v in inner]]

    @staticmethod
    def power(rng, mults):
        roots = _distinct_rationals(rng, len(mults))
        unit = _rational(rng)
        return ["divisor", _product_text(unit, list(zip(roots, mults))), rat(unit),
                [[rat(r), m] for r, m in zip(roots, mults)]]

    def generate(self, rng):
        records = []
        for shapes, make_record in ((self.PAIR_SHAPES, self.pair),
                                    (self.COMPOSITE_SHAPES, self.composite),
                                    (self.POWER_SHAPES, self.power)):
            records += [make_record(rng, shape) for shape in shapes for _ in range(5)]
        records.extend(self.anchors.values())
        rng.shuffle(records)
        return records

    def run(self, record):
        (build_report, check_hypotheses, parse_uni, render_json, report_mapping,
         special_fiber_divisor, uni_decompose_at) = self._api
        kind = record[0]
        if kind == "pair":
            p, q = parse_uni(record[1]), parse_uni(record[2])
            hypotheses = check_hypotheses(p, q)
            document = build_report(p, q)
            return hypotheses, document, render_json(report_mapping(document))
        if kind == "decompose":
            return uni_decompose_at(parse_uni(record[1]), record[2])
        return special_fiber_divisor(parse_uni(record[1]))

    def check(self, record, result) -> bool:
        kind = record[0]
        if kind == "pair":
            _, _, _, unit, p_roots, q_roots = record
            p_roots = [(Fraction(r), m) for r, m in p_roots]
            q_roots = [(Fraction(r), m) for r, m in q_roots]
            hypotheses, document, text = result
            doc = json.loads(text)
            s = len(q_roots)
            t = len({r for r, _ in p_roots} | {r for r, _ in q_roots})
            d = math.gcd(*(m for _, m in p_roots))
            return (
                hypotheses.satisfied
                and doc["hypotheses"]["satisfied"] is True
                and doc["betti"] == {"b0": 1, "b1": 2, "b2": s + t, "s": s, "t": t}
                and doc["orbifold_order"] == d
                and len(doc["components"]) == d - 1
                and doc["divisor"]["unit"] == unit
                and doc["divisor"]["divisor_multiplicity"] == d
                and _parts_match(document.body.divisor.components, _grouped_factors(p_roots))
            )
        if kind == "decompose":
            _, _, _, outer, inner = record
            return (
                result is not None
                and list(result.inner.coeffs) == [Fraction(v) for v in inner]
                and list(result.outer.coeffs) == [Fraction(v) for v in outer]
            )
        _, _, unit, roots = record
        roots = [(Fraction(r), m) for r, m in roots]
        return (
            result.unit == Fraction(unit)
            and result.divisor_multiplicity == math.gcd(*(m for _, m in roots))
            and _parts_match(result.components, _grouped_factors(roots))
        )


# -- cli_mix ------------------------------------------------------------------

CHILD = HERE / "cli_child.py"
CHILD_TIMEOUT_S = 60


def _arg(text: str) -> str:
    """Keep a polynomial argument from reading as an option flag."""
    return f"({text})" if text.startswith("-") else text


class CliMix:
    """One ``broughton`` process per op over all commands, both formats,
    including inputs that must exit 1 or 2.  Exit code 3 is not reachable
    from any input at this commit (the test suite forces it)."""

    name = "cli_mix"
    in_process = False
    anchors = {"cli_zahid_5_3": [["zahid", "5", "3", "--format", "text"], 0]}
    warmup = [[["zahid", "2", "1", "--format", "json"], 0]]

    def bind(self):
        import broughton.cli  # noqa: F401  (setup cost of the command line)

    # The k-th success of a command in each format takes the k-th size
    # below, so every seed has the same cost profile.
    _ZAHID = ((1, 1), (3, 2), (5, 3), (8, 6), (6, 4), (2, 5))
    _PAIRS = RationalMix.PAIR_SHAPES[:3] * 2
    _POWERS = ((1, 2), (2, 4), (3, 1), (4, 4), (2, 3), (1, 3))
    _COMPOSITES = ((2, 2), (2, 3), (3, 2)) * 2
    _EXPONENTS = ((2, 2), (2, 3), (3, 2), (3, 4), (2, 4), (3, 3))

    def _ok(self, rng, command, k):
        if command == "zahid":
            return [command, *map(str, self._ZAHID[k])]
        if command in ("check", "betti", "charvar", "report"):
            pair = RationalMix.pair(rng, self._PAIRS[k])
            return [command, _arg(pair[1]), _arg(pair[2])]
        if command == "divisor":
            return [command, _arg(RationalMix.power(rng, self._POWERS[k])[1])]
        if command == "decompose":
            record = RationalMix.composite(rng, self._COMPOSITES[k])
            return [command, _arg(record[1]), "--inner-degree", str(record[2])]
        m, n = self._EXPONENTS[k]
        p = _random_p(rng, 1, k % 2 == 0)
        return [command, _arg(_poly_text(p)), "--m", str(m), "--n", str(n),
                f"--c={_num(_rational(rng, 3, 2))}"]

    _PARSE_ERRORS = ("2x", "x^", "(x + 1", "x^99999", "x + y", "1/0*x")

    def _failing(self, rng, command, kind):
        """Argument vector and exit code for an input that must fail."""
        bad = rng.choice(self._PARSE_ERRORS)
        if command in ("check", "betti", "charvar", "report"):
            if kind == 1:
                return [command, bad, "x"], 1
            r = _distinct_rationals(rng, 2)
            return [command, f"({_linear_text(r[0])})^2", f"({_linear_text(r[1])})"], 2
        if command == "divisor":
            return ([command, bad], 1) if kind == 1 else ([command, _num(abs(_rational(rng)))], 2)
        if command == "decompose":
            if kind == 1:
                return [command, bad, "--inner-degree", "2"], 1
            return [command, "x^5 + x", "--inner-degree", str(rng.randint(2, 4))], 2
        if command == "connectivity":
            if kind == 1:
                return [command, "x", "--m", "2", "--n", "2", "--c", "nope"], 1
            return [command, "x + 1", "--m", "2", "--n", "2", "--c", "0"], 2
        return [command, str(rng.randint(-3, 0)), str(rng.randint(1, 4))], 2

    def generate(self, rng):
        # Per command: 6 successes in each format, one parse error (or for
        # zahid a second bad parameter) and one precondition failure.
        records = []
        for command in ("check", "betti", "charvar", "report", "divisor",
                        "decompose", "connectivity", "zahid"):
            for fmt in ("json", "text"):
                for k in range(6):
                    records.append([self._ok(rng, command, k) + ["--format", fmt], 0])
            for kind in (1, 2):
                argv, code = self._failing(rng, command, kind)
                records.append([argv + ["--format", rng.choice(("json", "text"))], code])
        records.extend(self.anchors.values())
        rng.shuffle(records)
        return records

    def run(self, record, extra_env=None):
        argv, _ = record
        env = {**os.environ, "PYTHONPATH": str(SRC), **(extra_env or {})}
        done = subprocess.run([sys.executable, str(CHILD), *argv], capture_output=True,
                              text=True, env=env, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        return done.returncode, done.stdout, done.stderr

    def check(self, record, result) -> bool:
        argv, expected = record
        code, out, err = result
        if code != expected or (code == 1 and not err.startswith("error:")):
            return False
        if argv[-1] == "json" and out:
            doc = json.loads(out)
            if doc.get("schema_version") != "1":
                return False
            if argv[0] == "zahid":
                a, b = int(argv[1]), int(argv[2])
                return doc["orbifold_order"] == a and doc["betti"]["b2"] == 2 * b
            return True
        return code != 0 or out.strip() != ""


WORKLOADS = {w.name: w for w in (ZahidSweep, ConnectivitySweep, RationalMix, CliMix)}


def make(name: str):
    return WORKLOADS[name]()


def generate(workload, seed: int):
    """The seeded input list; the same (workload, seed) always gives the
    same records, in the same order."""
    return workload.generate(random.Random(f"{workload.name}:{seed}"))
