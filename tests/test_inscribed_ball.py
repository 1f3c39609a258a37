"""The one-tableau inscribed ball against the staged solve it replaced.

`staged_inscribed_ball` (tests/oracles.py) runs one two-phase solve per
lexicographic stage.  The lex-least centre of the largest inscribed ball is
unique, so both must return the same (radius, point), or raise the same
error with the same message, on every input.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecert import (
    EmptyPolytopeError,
    HPolytope,
    UnboundedPolytopeError,
    inscribed_ball,
    polytope_is_empty,
    witness_points,
)
from nervecert.complexes import barycentric_subdivision, complex_from_facets
from nervecert.fileio import family_from_doc
from nervecert.linprog import OPTIMAL, UNBOUNDED, Dictionary, lex_stages, solve_lp
from oracles import fm_polytope_is_empty, staged_inscribed_ball

DATA = Path(__file__).parent / "data"

SHAPES = (
    "random", "box", "stack", "point", "segment", "slab", "halfline",
    "empty", "empty_free",
)


def _q(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))


def _unit(m: int, j: int, sign: int) -> list[Fraction]:
    row = [Fraction(0)] * m
    row[j] = Fraction(sign)
    return row


def _interval_rows(m: int, j: int, lo, hi) -> tuple[list, list]:
    """Rows of lo <= x_j <= hi; either bound may be None."""
    rows, rhs = [], []
    if hi is not None:
        rows.append(_unit(m, j, 1))
        rhs.append(hi)
    if lo is not None:
        rows.append(_unit(m, j, -1))
        rhs.append(-lo)
    return rows, rhs


def random_hpolytope(rng) -> tuple[str, HPolytope]:
    """A small H-polytope in R^1..R^4 of a drawn shape, rows shuffled.

    Zero rows (b_i of either sign) and duplicated or rescaled rows are mixed
    in, so degenerate starts, redundant rows and ties reach the driver.
    """
    m = rng.randint(1, 4)
    shape = rng.choice(SHAPES)
    rows: list = []
    rhs: list = []

    def interval(j, lo, hi):
        r, b = _interval_rows(m, j, lo, hi)
        rows.extend(r)
        rhs.extend(b)

    if shape == "random":
        for _ in range(rng.randint(1, 6)):
            rows.append([Fraction(rng.randint(-3, 3)) for _ in range(m)])
            rhs.append(_q(rng) + 3)
        if rng.random() < 0.6:  # mostly bounded
            for j in range(m):
                interval(j, Fraction(-6), Fraction(6))
    elif shape == "box":
        for j in range(m):
            lo = _q(rng)
            interval(j, lo, lo + Fraction(rng.randint(0, 6), rng.choice((1, 2))))
    elif shape == "stack":  # boxes around one centre, one in five moved off
        centre = [_q(rng) for _ in range(m)]
        for _ in range(rng.randint(2, 3)):
            off = rng.choice((0, 0, 0, 0, 5))
            for j in range(m):
                lo = centre[j] + off - Fraction(rng.randint(0, 4), rng.choice((1, 2)))
                interval(j, lo, centre[j] + off + Fraction(rng.randint(0, 4), rng.choice((1, 2))))
        if shape == "stack" and rng.random() < 0.5:
            rows.append([Fraction(rng.randint(-2, 2)) for _ in range(m)])
            rhs.append(_q(rng))
    elif shape in ("point", "segment"):
        long = rng.randrange(m) if shape == "segment" else None
        for j in range(m):
            lo = _q(rng)
            interval(j, lo, lo + (rng.randint(1, 5) if j == long else 0))
    elif shape == "slab":
        j = rng.randrange(m)
        lo = _q(rng)
        interval(j, lo, lo + rng.randint(0, 4))
    elif shape == "halfline":
        j = rng.randrange(m)
        for k in range(m):
            lo = _q(rng)
            if k == j:
                interval(k, *((lo, None) if rng.random() < 0.5 else (None, lo)))
            else:
                interval(k, lo, lo)
    elif shape == "empty":
        for j in range(m):
            lo = _q(rng)
            interval(j, lo, lo + rng.randint(0, 4))
        j = rng.randrange(m)
        lo = _q(rng)
        interval(j, lo, lo - Fraction(rng.randint(1, 4), rng.choice((1, 2))))
    else:  # empty_free: an empty slab, every other coordinate free
        j = rng.randrange(m)
        lo = _q(rng)
        interval(j, lo, lo - Fraction(rng.randint(1, 4), rng.choice((1, 2))))

    for _ in range(rng.choice((0, 0, 1, 2))):
        if rows and rng.random() < 0.6:
            i = rng.randrange(len(rows))
            scale = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2)))
            rows.append([scale * a for a in rows[i]])
            rhs.append(scale * rhs[i] + rng.choice((0, 0, 1)))
        else:
            rows.append([Fraction(0)] * m)
            rhs.append(Fraction(rng.choice((-1, 0, 0, 1))))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return shape, HPolytope.from_rows([rows[i] for i in order], [rhs[i] for i in order], m)


def outcome(solver, P):
    try:
        return solver(P)
    except (EmptyPolytopeError, UnboundedPolytopeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_one_tableau_ball_equals_the_staged_solve(rng):
    _, P = random_hpolytope(rng)
    assert outcome(inscribed_ball, P) == outcome(staged_inscribed_ball, P)


def test_the_property_reaches_every_outcome():
    # The same generator, seeded: every verdict of the ball must occur often,
    # so the property above cannot pass on one easy branch.
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(400):
        _, P = random_hpolytope(rng)
        got = outcome(inscribed_ball, P)
        assert got == outcome(staged_inscribed_ball, P)
        if isinstance(got[0], Fraction):
            seen["zero radius" if got[0] == 0 else "ball"] += 1
        else:
            seen[got[1].split(" is ")[0].split()[0]] += 1
    assert seen["ball"] >= 20 and seen["zero radius"] >= 20
    assert seen["polytope"] >= 20  # empty
    assert seen["inscribed"] >= 10  # radius unbounded
    assert seen["coordinate"] >= 10  # a coordinate unbounded below


def apex_polytope(rng) -> tuple[str, HPolytope]:
    """At least m + 2 rows tight at one rational apex in R^1..R^4, rows shuffled.

    A "pointed" cone has random row directions, so it is mostly the apex
    alone; an "open" cone has every direction flipped into one half-space,
    so it has interior.  Tight rows are duplicated or rescaled, a bounding
    box around the apex may be added (a side of it may touch the apex), and
    a "cut" row, the reverse of a tight row moved by 0, 1/2 or 1, may pin
    the cone to a hyperplane or empty it.  Every vertex of the start is
    degenerate, so Bland's tie rules decide every pivot.
    """
    m = rng.randint(1, 4)
    apex = [_q(rng) for _ in range(m)]
    shape = rng.choice(("pointed", "open"))
    toward = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3)) for _ in range(m)]
    rows: list = []
    for _ in range(m + 2 + rng.randint(0, 2)):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        if not any(row):
            row[rng.randrange(m)] = Fraction(1)
        if shape == "open" and sum(a * u for a, u in zip(row, toward)) > 0:
            row = [-a for a in row]
        rows.append(row)
    for _ in range(rng.choice((0, 1, 2))):
        scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        rows.append([scale * a for a in rng.choice(rows)])
    rhs = [sum(a * x for a, x in zip(row, apex)) for row in rows]
    if rng.random() < 0.3:
        shape += "+cut"
        i = rng.randrange(len(rows))
        rows.append([-a for a in rows[i]])
        rhs.append(-rhs[i] - Fraction(rng.choice((0, 1, 2)), 2))
    if rng.random() < 0.5:
        shape += "+box"
        for j in range(m):
            r, b = _interval_rows(m, j, apex[j] - rng.randint(0, 3), apex[j] + rng.randint(0, 3))
            rows.extend(r)
            rhs.extend(b)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return shape, HPolytope.from_rows([rows[i] for i in order], [rhs[i] for i in order], m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_degenerate_apexes_agree_with_the_staged_solve_and_elimination(rng):
    _, P = apex_polytope(rng)
    assert outcome(inscribed_ball, P) == outcome(staged_inscribed_ball, P)
    assert polytope_is_empty(P) == fm_polytope_is_empty(P)


def test_the_apex_property_reaches_every_outcome():
    # The same generator, seeded: in each of R^1 to R^4 the apex is the whole
    # body and a boundary point of a ball, and some bodies are empty.
    rng = random.Random(7)
    seen = Counter()
    for _ in range(300):
        shape, P = apex_polytope(rng)
        got = outcome(inscribed_ball, P)
        assert got == outcome(staged_inscribed_ball, P)
        empty = polytope_is_empty(P)
        assert empty == fm_polytope_is_empty(P)
        if isinstance(got[0], Fraction):
            seen[P.ambient, "zero radius" if got[0] == 0 else "ball"] += 1
        else:
            seen[P.ambient, got[1].split(" is ")[0].split()[0]] += 1
        seen[P.ambient, "empty"] += empty
    for m in range(1, 5):
        for kind in ("zero radius", "ball", "inscribed", "empty"):
            assert seen[m, kind] >= 3, seen


def test_empty_slab_with_a_free_coordinate_is_empty():
    # The radius -1/2 is read before any coordinate stage; the stage for the
    # free coordinate y would be unbounded below.
    slab = HPolytope.from_rows([[1, 0], [-1, 0]], [0, -1], ambient=2)
    with pytest.raises(EmptyPolytopeError, match="^polytope is empty$"):
        inscribed_ball(slab)
    assert outcome(staged_inscribed_ball, slab) == (EmptyPolytopeError, "polytope is empty")


def test_zero_row_with_negative_rhs_is_empty():
    P = HPolytope.from_rows([[1, 0], [0, 0], [-1, 0]], [1, -1, 1], ambient=2)
    assert outcome(inscribed_ball, P) == (EmptyPolytopeError, "polytope is empty")
    assert outcome(staged_inscribed_ball, P) == (EmptyPolytopeError, "polytope is empty")


def test_canonical_points_of_a_pipeline_d2_family_are_pinned():
    # Two disjoint jittered triangles, sd L realized by lifted shrunk star
    # hulls in R^4 (50 faces); radii and points captured from the staged solve.
    doc = json.loads((DATA / "pipeline_d2_seed11.json").read_text())
    F = family_from_doc(doc["family"])
    K = barycentric_subdivision(complex_from_facets(doc["facets"])).complex
    pinned = {
        tuple(b["face"]): (Fraction(b["radius"]), tuple(map(Fraction, b["point"])))
        for b in doc["balls"]
    }
    assert len(pinned) == 50
    for face, ball in pinned.items():
        assert inscribed_ball(F.subfamily_polytope(face)) == ball, face
    points = witness_points(F, K)
    assert points == {face: p for face, (_, p) in pinned.items()}


def test_lex_stages_match_fixed_re_solves():
    # min x + y, then min x, over the square [0, 2]^2 cut by x + y >= 1.
    # Variables x, y, s1, s2, s3 of x + s1 = 2, y + s2 = 2, -x - y + s3 = -1,
    # as the dictionary of the feasible basis (s1, s2, x), nonbasic y and s3:
    # stage 1's face is the cut, stage 2 picks its x-least end.
    D = Dictionary(
        [[-1, 1, 1], [1, 0, 2], [1, -1, 1]], 1, [2, 3, 0], [1, 4]
    )
    stages = lex_stages(D, [{0: 1, 1: 1}, {0: 1}])
    assert next(stages) == OPTIMAL and D.value(0) + D.value(1) == 1
    assert next(stages) == OPTIMAL and (D.value(0), D.value(1)) == (0, 1)
    assert next(stages, None) is None
    staged = solve_lp([1, 0], A_ub=[[-1, -1], [1, 0], [0, 1]], b_ub=[-1, 2, 2],
                      A_eq=[[1, 1]], b_eq=[1], nonneg=[True, True])
    assert staged.x == (0, 1)


def test_lex_stages_report_an_unbounded_stage_and_stop():
    # The ray x = y >= 0, as the row x - y = 0 with x basic: a zero first
    # stage keeps all of it, min -y runs off along it, and the third stage
    # never runs.
    stages = list(lex_stages(Dictionary([[-1, 0]], 1, [0], [1]), [{}, {1: -1}, {0: 1}]))
    assert stages == [OPTIMAL, UNBOUNDED]
