"""Seeded session generators for the three benchmark workloads, and the
checks that decide whether a session's report is correct.

A workload is a *round*: a fixed list of session texts.  The benchmark runs
whole rounds, so every run measures the same mix of session kinds whatever
the machine speed.  The seed chooses parameters inside each kind (points,
coefficients, permutations, order) but not the kinds themselves, so the mix
of cheap and expensive sessions, and with it the median and the tail, is
the same for every seed.

Nothing here imports weilreg: the program sees only the generated text, and
the checks use their own exact arithmetic.
"""

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Session:
    name: str
    text: str
    kind: str
    expect: dict = field(default_factory=dict)


# -- golden -------------------------------------------------------------------

GOLDEN_NAMES = (
    "action_laws", "blowup_atlas", "blowup_closedgraph", "blowup_xreg", "certify", "cremona",
)

# The Z/4 rotation (x, y) -> (y, 1/x): a = rotation, b = a^2, c = a^3.
Z4_ROTATION = """\
# Z/4 rotation of the plane and its regular model
var x y
variety X = affine(x, y)
group Z4 = finite(e, a, b, c | a*a = b, a*b = c, a*c = e, b*a = c, b*b = e, b*c = a, c*a = e, c*b = a, c*c = b)
action rot : Z4 x X -> X = {a: (y, 1/x), b: (1/x, 1/y), c: (1/y, x)}
cmd checkaction rot
cmd xreg rot
cmd regularize rot
"""


def golden(rng, root):
    sessions = []
    for name in GOLDEN_NAMES:
        text = (root / "sessions" / f"{name}.wr").read_text(encoding="utf-8")
        expected = json.loads((root / "tests" / "golden" / f"{name}.json").read_text(encoding="utf-8"))
        sessions.append(Session(name, text, "golden", {"records": expected["records"]}))
    sessions.append(Session("z4_rotation", Z4_ROTATION, "all_ok"))
    rng.shuffle(sessions)
    return sessions


# -- atlas --------------------------------------------------------------------

GA_CHART = """\
var s u t
variety X = affine(u, t)
group G = Ga(s)
action rho : G x X -> X = (u+s, u*t/(u+s))
cmd atlas rho S=({points}) xreg
"""

DIM3_CHART = """\
var s u t v
variety X = affine(u, t, v)
group G = Ga(s)
action rho : G x X -> X = (u+s, u*t/(u+s), u^2*v/(u+s)^2)
cmd xreg rho
cmd closedgraph rho at ({at}) xreg
cmd atlas rho S=({points}) xreg
"""

GAGA_CHART = """\
var s r u t
variety X = affine(u, t)
group A = Ga(s)
group B = Ga(r)
group G = A x B
action rho : G x X -> X = (u+s, (u*t+r)/(u+s))
cmd atlas rho S=({points}) xreg
"""

GM_CHART = """\
var z w x y
variety X = affine(x, y)
group G = Gm(z, w)
action rho : G x X -> X = (z*x, w*y*(x+1)/(z*x+1))
cmd atlas rho S=({points}) xreg
"""

# One round, by rising cost.  The Ga chart with six points appears twice so
# that the 75th percentile falls inside one kind rather than between two.
ATLAS_ROUND = ("ga3", "gaga3", "gm3", "ga4", "gaga4", "ga5", "ga6", "ga6", "dim3")


def _pairs(points):
    return ", ".join(f"({a}, {b})" for a, b in points)


def _atlas_session(rng, kind, index):
    # Point sets always contain the identity and stay near it: cost grows
    # with the size of the points' coordinates, and the seed should not
    # change the cost much.  Every set covers: its shifted charts' union is
    # the whole regular locus.
    if kind.startswith("ga") and not kind.startswith("gaga"):
        k = int(kind[2:])
        start = rng.randint(-(k - 1), 0)
        points = list(range(start, start + k))
        rng.shuffle(points)
        text = GA_CHART.format(points=", ".join(map(str, points)))
    elif kind == "dim3":
        points = rng.choice(((0, 1), (1, 0), (0, -1), (-1, 0)))
        text = DIM3_CHART.format(points=", ".join(map(str, points)), at=rng.choice((1, 2, -1)))
    elif kind.startswith("gaga"):
        # A fixed corner set in seeded order: other sets cost up to 1.5 times
        # as much, and this kind sits at the round's median.
        points = [(0, 0), (1, 0), (0, 1), (1, 1)][:int(kind[4:])]
        rng.shuffle(points)
        text = GAGA_CHART.format(points=_pairs(points))
    else:
        scales = rng.sample((Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(-2)), 2)
        points = [(Fraction(1), Fraction(1))] + [(a, 1 / a) for a in scales]
        rng.shuffle(points)
        text = GM_CHART.format(points=_pairs(points))
    return Session(f"atlas_{index:02d}_{kind}", text, "atlas")


def atlas(rng, root):
    kinds = list(ATLAS_ROUND)
    rng.shuffle(kinds)
    return [_atlas_session(rng, kind, i) for i, kind in enumerate(kinds)]


# -- mapcalc ------------------------------------------------------------------

VARS = ("x", "y", "z")

# A shape fixes, for each coordinate of a triangular Moebius map
#     v_i -> (A v_i + B) / (C v_i + D),
# the degrees of A, B, C, D as polynomials in v_1..v_{i-1}; -1 means absent.
# Every monomial up to the degree is present, so the seed changes values
# and the permutation of the output coordinates, never the structure.
# Every shape is one on which `inverse` finds its certificate (README.md
# names a birational shape on which it does not).  A round holds
# MAPCALC_COPIES maps of every shape, so that its quantiles average over
# several draws of each shape's coefficients.  Session i composes map i
# with the next map of the same dimension.
MAPCALC_SHAPES = (
    ((0, 0, -1, 0), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (-1, 0, 1, 0)),
    ((0, 0, 0, 0), (-1, 0, 1, 1)),
    ((0, 0, 0, 0), (2, 1, 0, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (2, 2, 0, 1)),
    ((0, 0, 0, 0), (-1, 2, 1, 2)),
    ((0, 0, 0, 0), (1, 1, -1, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, -1, 0), (1, 1, -1, 0)),
    ((0, 0, -1, 0), (1, 0, -1, 1), (1, 1, -1, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (1, 1, -1, 0)),
    ((0, 0, -1, 0), (1, 1, -1, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 0), (1, 1, -1, 1), (1, 1, -1, 0)),
)

MAPCALC_COPIES = 6
COEFFS = (-3, -2, -1, 1, 2, 3)


def _monomials(nvars, degree):
    return [e for d in range(degree + 1)
            for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]


def _poly_text(terms, names):
    if not terms:
        return "0"
    out = []
    for exps, c in terms:
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def _poly_value(terms, point):
    total = Fraction(0)
    for exps, c in terms:
        v = Fraction(c)
        for x, k in zip(point, exps):
            v *= x ** k
        total += v
    return total


def _random_point(rng, n):
    # Large, nonzero numerators and denominators: the maps' poles sit at
    # small rationals such as 0, 2 or 5/4, which small points hit too often.
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 31)) for _ in range(n))


def _moebius_coordinate(rng, i, degrees):
    names = VARS[:i]
    while True:
        parts = [[(e, rng.choice(COEFFS)) for e in _monomials(i, d)] if d >= 0 else []
                 for d in degrees]
        a, b, c, d = parts
        # A*D - B*C must be a nonzero polynomial; one nonzero value proves it.
        if any(_poly_value(a, p) * _poly_value(d, p) != _poly_value(b, p) * _poly_value(c, p)
               for p in (_random_point(rng, i) for _ in range(4))):
            break
    v = VARS[i]
    num = f"({_poly_text(a, names)})*{v}+({_poly_text(b, names)})" if a else _poly_text(b, names)
    den = f"({_poly_text(c, names)})*{v}+({_poly_text(d, names)})" if c else _poly_text(d, names)
    return f"({num})/({den})"


def _random_map(rng, shape):
    coords = [_moebius_coordinate(rng, i, degrees) for i, degrees in enumerate(shape)]
    rng.shuffle(coords)
    return coords


def mapcalc(rng, root):
    maps = [_random_map(rng, shape) for _ in range(MAPCALC_COPIES) for shape in MAPCALC_SHAPES]
    sessions = []
    for i, f in enumerate(maps):
        n = len(f)
        same = [j for j in range(len(maps)) if len(maps[j]) == n]
        g = maps[same[(same.index(i) + 1) % len(same)]]
        names = ", ".join(VARS[:n])
        text = (f"var {' '.join(VARS[:n])}\nvariety X = affine({names})\n"
                f"map f : X -> X = ({', '.join(f)})\nmap g : X -> X = ({', '.join(g)})\n"
                "cmd dom f\ncmd invert f\ncmd breg f\ncmd image f\ncmd closedgraph f\ncmd compose f g\n")
        points = [_random_point(rng, n) for _ in range(8)]
        sessions.append(Session(f"mapcalc_{i:02d}_a{n}", text, "mapcalc",
                                {"f": f, "g": g, "points": points}))
    rng.shuffle(sessions)
    return sessions


GENERATORS = {"golden": golden, "atlas": atlas, "mapcalc": mapcalc}


def generate(workload, seed, root):
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), Path(root))


# -- exact evaluation of report formulas --------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def evaluate(text, env):
    """Value of a +,-,*,/,^ formula at a point, in exact rationals.

    Raises ZeroDivisionError where a denominator vanishes."""
    tokens = [m.group(m.lastindex) for m in _TOKEN.finditer(text) if m.lastindex]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = unary()
        while peek() in ("*", "/"):
            value = value * unary() if take() == "*" else value / unary()
        return value

    def unary():
        if peek() == "-":
            take()
            return -unary()
        return power()

    def power():
        value = atom()
        if peek() == "^":
            take()
            value = value ** int(take())
        return value

    def atom():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced formula {text!r}")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        return env[tok]

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return value


def _apply(coords, point):
    env = dict(zip(VARS, point))
    return tuple(evaluate(c, env) for c in coords)


# -- output checks --------------------------------------------------------------


def check(session, records):
    """Reasons the session's records are wrong; empty when they are right."""
    problems = [f"error record: {r['command']}: {r['payload'].get('reason')}"
                for r in records if r["status"] == "error"]
    if session.kind == "golden":
        expected = session.expect["records"]
        strip = ("millis", "groebner_steps")
        got = [{k: v for k, v in r.items() if k not in strip} for r in records]
        want = [{k: v for k, v in r.items() if k not in strip} for r in expected]
        if got != want:
            problems.append("records differ from the golden report")
    elif session.kind == "all_ok":
        problems += [f"not ok: {r['command']}" for r in records if r["status"] != "ok"]
    elif session.kind == "atlas":
        for r in records:
            if r["command"].startswith("cmd atlas"):
                checks = [r["payload"].get(c) for c in ("symmetry", "cocycle", "separated", "covering")]
                if checks != ["pass"] * 4:
                    problems.append(f"atlas checks {checks}: {r['command']}")
    elif session.kind == "mapcalc":
        problems += _check_mapcalc(session, records)
    return problems


def _check_mapcalc(session, records):
    by_cmd = {r["command"].split()[1]: r for r in records if r["command"].startswith("cmd ")}
    f, g = session.expect["f"], session.expect["g"]
    problems = []
    image = by_cmd["image"]["payload"]
    if image.get("dominant") is not True or image.get("ideal") != []:
        problems.append("image of a birational map is not the whole space")
    inverse = by_cmd["invert"]["payload"].get("inverse")
    composition = by_cmd["compose"]["payload"].get("composition")
    if inverse is None or composition is None:
        return problems + ["invert or compose returned no map"]
    verified = 0
    for p in session.expect["points"]:
        try:
            back = _apply(f, _apply(inverse, p))
        except ZeroDivisionError:
            continue
        if back != p:
            problems.append(f"f(f^-1(p)) != p at p = {p}")
        verified += 1
        try:
            direct = _apply(g, _apply(f, p))
            composed = _apply(composition, p)
        except ZeroDivisionError:
            continue
        if direct != composed:
            problems.append(f"compose f g disagrees with g(f(p)) at p = {p}")
    if verified < 3:
        problems.append(f"inverse verified at only {verified} points")
    return problems
