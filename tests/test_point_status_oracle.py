"""The seeded `mapcalc` point-status oracle: `point_status` against direct
evaluation, on the benchmark's `mapcalc` maps (no sympy).

The maps are the seeded triangular Möbius maps of A^2 and A^3 that
`bench/workloads.py` draws for the `mapcalc` workload, each checked at the
workload's own points, which keep clear of the poles, and at points built
on a pole: a denominator of degree one in some variable is solved for that
variable after the other coordinates are drawn.  The oracle evaluates each
coordinate's text with Python's `Fraction` arithmetic, apart from the
engine's parser and polynomials.  A `DEFINED` value must equal it, a point
where every representative has a vanishing denominator must not be
`DEFINED`, and any other verdict must come with a division by zero.  Seed 7
checks 90 maps at 876 points, 715 `DEFINED` and 161 `UNDEFINED`, all of
those on a pole, in about 0.5 s.
"""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from weilreg.maps import point_status, rational_map
from weilreg.varieties import affine_space

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def _direct(texts, names, point):
    """The coordinates evaluated from their text, or None where a division
    by zero occurs."""
    scope = {"F": Fraction, **dict(zip(names, point))}
    try:
        return tuple(eval(re.sub(r"\d+", r"F(\g<0>)", t).replace("^", "**"), {"__builtins__": {}}, scope)
                     for t in texts)
    except ZeroDivisionError:
        return None


def _pole_points(phi, rng):
    """For each denominator of degree one in some variable, a point where it
    vanishes."""
    n = phi.source.arity
    points = []
    for f in phi.reps[0]:
        linear = [k for k in range(n) if f.den.degree_in(k) == 1]
        if not linear:
            continue
        k = rng.choice(linear)
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = f.den.evaluate(p[:k] + [Fraction(0)] + p[k + 1:])
        a = f.den.evaluate(p[:k] + [Fraction(1)] + p[k + 1:]) - b
        if a:
            p[k] = -b / a
            points.append(tuple(p))
    return points


def test_point_status_agrees_with_direct_evaluation():
    rng = random.Random(7)
    counts = {"DEFINED": 0, "UNDEFINED": 0, "UNKNOWN": 0, "poles": 0}
    for session in workloads.generate("mapcalc", 7, ROOT):
        texts = session.expect["f"]
        names = workloads.VARS[:len(texts)]
        X = affine_space(names)
        phi = rational_map(X, X, texts)
        for point in list(session.expect["points"]) + _pole_points(phi, rng):
            status = point_status(phi, point)
            direct = _direct(texts, names, point)
            counts[status.kind] += 1
            if all(any(f.den.evaluate(point) == 0 for f in rep) for rep in phi.reps):
                counts["poles"] += 1
                assert status.kind != "DEFINED"
            if status.kind == "DEFINED":
                assert status.value == direct
            else:
                assert direct is None
    assert counts["DEFINED"] and counts["poles"]
