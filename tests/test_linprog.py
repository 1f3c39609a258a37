"""Exact simplex and Gauss cores."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import nervecert.linprog
from nervecert.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Dictionary,
    gauss_solve,
    lex_stages,
    solve_lp,
)
from oracles import checked_pivots, fm_feasible


def test_basic_maximization():
    # max x + y in the unit square
    res = solve_lp(
        [1, 1],
        A_ub=[[1, 0], [-1, 0], [0, 1], [0, -1]],
        b_ub=[1, 0, 1, 0],
        maximize=True,
    )
    assert res.status == OPTIMAL
    assert res.objective == 2
    assert res.x == (Fraction(1), Fraction(1))


def test_free_variable_minimization():
    # min x subject to x >= -3 (free variable goes negative)
    res = solve_lp([1], A_ub=[[-1]], b_ub=[3])
    assert res.status == OPTIMAL
    assert res.x == (Fraction(-3),)


def test_infeasible_system():
    res = solve_lp([0], A_ub=[[1], [-1]], b_ub=[0, -1])
    assert res.status == INFEASIBLE


def test_unbounded_objective():
    res = solve_lp([1], A_ub=[[-1]], b_ub=[0], maximize=True)
    assert res.status == UNBOUNDED


def test_equality_constraints_with_nonneg_vars():
    # barycentric coordinates of 1/2 between 0 and 1
    res = solve_lp(
        [0, 0],
        A_eq=[[0, 1], [1, 1]],
        b_eq=[Fraction(1, 2), 1],
        nonneg=[True, True],
    )
    assert res.status == OPTIMAL
    assert res.x == (Fraction(1, 2), Fraction(1, 2))


def test_degenerate_point_polytope():
    res = solve_lp([0], A_ub=[[1], [-1]], b_ub=[0, 0])
    assert res.status == OPTIMAL
    assert res.x == (Fraction(0),)


def test_exact_fractional_optimum():
    # max y with y <= x/3 + 1/7, y <= -x/5 + 2/3 meets at an ugly rational
    res = solve_lp(
        [0, 1],
        A_ub=[[Fraction(-1, 3), 1], [Fraction(1, 5), 1]],
        b_ub=[Fraction(1, 7), Fraction(2, 3)],
        maximize=True,
    )
    assert res.status == OPTIMAL
    x = Fraction(55, 56)
    assert res.x[0] == x
    assert res.x[1] == x / 3 + Fraction(1, 7)


def test_feasibility_agrees_with_fourier_motzkin():
    rng = random.Random(29)
    for _ in range(60):
        m = rng.randint(1, 3)
        r = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(r)]
        rhs = [Fraction(rng.randint(-4, 6)) for _ in range(r)]
        res = solve_lp([0] * m, A_ub=rows, b_ub=rhs)
        assert (res.status == OPTIMAL) == fm_feasible(rows, rhs)
        if res.status == OPTIMAL:
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, res.x)) <= b


def test_determinism():
    rows = [[1, 2], [-1, 1], [0, -1]]
    rhs = [4, 1, 0]
    first = solve_lp([3, -1], A_ub=rows, b_ub=rhs, maximize=True)
    second = solve_lp([3, -1], A_ub=rows, b_ub=rhs, maximize=True)
    assert first == second


def test_gauss_unique():
    kind, x = gauss_solve([[2, 1], [1, -1]], [5, 1])
    assert kind == "unique"
    assert x == [Fraction(2), Fraction(1)]


def test_gauss_inconsistent():
    kind, x = gauss_solve([[1, 1], [2, 2]], [1, 3])
    assert kind == "inconsistent"
    assert x is None


def test_gauss_underdetermined():
    kind, x = gauss_solve([[1, 1], [2, 2]], [1, 2])
    assert kind == "underdetermined"
    assert x is None


def test_gauss_matches_random_products():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        M = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(M[i][j] * x[j] for j in range(n)) for i in range(n)]
        kind, sol = gauss_solve(M, rhs)
        if kind == "unique":
            assert sol == x
        else:
            assert kind == "underdetermined"  # constructed systems are consistent


# -- the integer core: pinned pivot paths and oracle properties ---------------

# LPs whose optimum is not unique or whose vertex is degenerate, so the
# returned x records the pivot path; the values are those of the earlier
# Fraction-tableau solver, which took the same Bland pivots.
PINNED = [
    (
        dict(c=[0, 0], A_ub=[[1, 1], [-1, 0], [0, -1], [2, 2]], b_ub=[1, 0, 0, 2]),
        (1, 0),
    ),
    (
        dict(c=[1, 1], A_ub=[[1, 1]], b_ub=[1], nonneg=[True, True], maximize=True),
        (1, 0),
    ),
    (
        dict(
            c=[0, 0, 1],
            A_ub=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            b_ub=[2, 2, 2, 2, 2, 2],
            A_eq=[[1, 2, 3], [2, 4, 6], [1, 0, -1]],  # second row is redundant
            b_eq=[6, 12, 0],
        ),
        (Fraction(1, 2), 2, Fraction(1, 2)),
    ),
    (
        dict(c=[0, 0], A_ub=[[1, 0], [-1, 0], [0, 1], [0, -1]], b_ub=[2, 1, Fraction(1, 2), 3]),
        (-1, -3),
    ),
    (
        dict(
            c=[1, 0, 0],
            A_ub=[[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]],
            b_ub=[0, 0, 0, 0, 0, Fraction(1, 3), Fraction(1, 3)],
            maximize=True,
        ),
        (0, 0, Fraction(-1, 3)),
    ),
    (
        # conv{(0,0),(2,0),(1,0)} against conv{(1,0),(1,1)}: a segment of weights
        dict(
            c=[0] * 5,
            A_eq=[[0, 2, 1, -1, -1], [0, 0, 0, 0, -1], [1, 1, 1, 0, 0], [0, 0, 0, 1, 1]],
            b_eq=[0, 0, 1, 1],
            nonneg=[True] * 5,
        ),
        (Fraction(1, 2), Fraction(1, 2), 0, 1, 0),
    ),
    (
        dict(
            c=[1, 2, 0],
            A_ub=[[-1, 0, 0], [0, -1, 0], [1, 1, 1], [Fraction(1, 2), Fraction(1, 3), 0]],
            b_ub=[0, 0, 4, 1],
            maximize=True,
            nonneg=[False, False, True],
        ),
        (0, 3, 1),
    ),
    (
        # Fractional and integer rows share one scale, so some rows reduce by
        # a common factor; the phase-1 costs must be formed before they do.
        dict(
            c=[0, 0, 0],
            A_ub=[
                [Fraction(1, 2), -1, Fraction(1, 2)],
                [-1, Fraction(1, 2), Fraction(1, 2)],
                [Fraction(-1, 2), Fraction(-1, 2), 0],
                [0, -2, 1],
            ],
            b_ub=[Fraction(-1, 2), 0, 1, 3],
            A_eq=[[-1, 1, 0]],
            b_eq=[2],
            nonneg=[True, True, False],
        ),
        (2, 4, 0),
    ),
    (
        # An artificial stays basic at level zero inside `least_face`'s face,
        # and the optimum over that face keeps its pivot path.
        dict(
            c=[0, 1],
            A_ub=[[-4, 2], [1, 1], [4, -4], [-4, 4], [2, 2]],
            b_ub=[4, Fraction(-1, 2), 2, 0, 2],
            nonneg=[True, False],
        ),
        (0, Fraction(-1, 2)),
    ),
]


@pytest.mark.parametrize("kwargs, expected", PINNED)
def test_degenerate_optima_keep_their_pivot_path(kwargs, expected):
    res = solve_lp(**kwargs)
    assert res.status == OPTIMAL
    assert res.x == tuple(Fraction(v) for v in expected)
    assert all(type(v) is Fraction for v in res.x)


@pytest.mark.parametrize("slacks_first", [False, True])
def test_beale_cycling_lp_terminates_at_its_optimum(monkeypatch, slacks_first):
    # Beale (1955): min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to
    #   1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 + x1 = 0
    #   1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 + x2 = 0
    #                          x6        + x3 = 1,
    # on which the most-negative-cost rule cycles from the slack basis.  The
    # optimum -1/20 is at x4 = 1/25, x6 = 1, x1 = 3/100.  Bland's rule must
    # reach it with the slacks numbered after the decision variables or before.
    decision, slack = ([3, 4, 5, 6], [0, 1, 2]) if slacks_first else ([0, 1, 2, 3], [4, 5, 6])
    D = Dictionary(
        [[1250, -300000, -200, 45000, 0], [2500, -450000, -100, 15000, 0],
         [0, 0, 5000, 0, 5000]],
        5000,
        list(slack),
        list(decision),
    )
    cost = dict(zip(decision, [-75, 15000, -2, 600]))  # 100 times Beale's
    pivots = []
    real = nervecert.linprog.pivot

    def counted(*args):
        pivots.append(args[1:])
        assert len(pivots) <= 50, "the pivot rule cycles"
        return real(*args)

    monkeypatch.setattr(nervecert.linprog, "pivot", counted)
    assert list(lex_stages(D, [cost])) == [OPTIMAL]
    x4, x5, x6, x7 = (D.value(v) for v in decision)
    assert (x4, x5, x6, x7) == (Fraction(1, 25), 0, 1, 0)
    assert [D.value(v) for v in slack] == [Fraction(3, 100), 0, 0]
    assert sum(c * D.value(v) for v, c in cost.items()) / 100 == Fraction(-1, 20)


small_rationals = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3])
)


@st.composite
def lp_instances(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(small_rationals, min_size=n, max_size=n)
    A_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(small_rationals, min_size=len(A_ub), max_size=len(A_ub)))
    A_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(small_rationals, min_size=len(A_eq), max_size=len(A_eq)))
    if A_eq and draw(st.booleans()):  # a redundant equality row
        k = draw(st.sampled_from([Fraction(-2), Fraction(1, 2), Fraction(3)]))
        A_eq.append([k * v for v in A_eq[0]])
        b_eq.append(k * b_eq[0])
    return dict(
        c=draw(row),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        nonneg=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        maximize=draw(st.booleans()),
    )


def _as_inequalities(lp) -> tuple[list, list]:
    rows, rhs = list(lp["A_ub"]), list(lp["b_ub"])
    for a, b in zip(lp["A_eq"], lp["b_eq"]):
        rows += [a, [-v for v in a]]
        rhs += [b, -b]
    n = len(lp["c"])
    for j, flag in enumerate(lp["nonneg"]):
        if flag:
            rows.append([-1 if k == j else 0 for k in range(n)])
            rhs.append(0)
    return rows, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_instances())
def test_lp_status_and_optimum_agree_with_fourier_motzkin(lp):
    res = solve_lp(**lp)
    rows, rhs = _as_inequalities(lp)
    assert (res.status != INFEASIBLE) == fm_feasible(rows, rhs)
    if res.status == OPTIMAL:
        for a, b in zip(lp["A_ub"], lp["b_ub"]):
            assert sum(v * x for v, x in zip(a, res.x)) <= b
        for a, b in zip(lp["A_eq"], lp["b_eq"]):
            assert sum(v * x for v, x in zip(a, res.x)) == b
        assert all(x >= 0 for x, flag in zip(res.x, lp["nonneg"]) if flag)
        assert sum(c * x for c, x in zip(lp["c"], res.x)) == res.objective
    # Minimizing sign * c.x: no feasible point beats an optimum by a margin,
    # and an unbounded objective really falls past any bound.
    sign = -1 if lp["maximize"] else 1
    better = [sign * v for v in lp["c"]]
    if res.status == OPTIMAL:
        margin = sign * res.objective - Fraction(1, 10**6)
        assert not fm_feasible(rows + [better], rhs + [margin])
    if res.status == UNBOUNDED:
        assert fm_feasible(rows + [better], rhs + [-(10**6)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_instances())
def test_every_pivot_of_the_random_lps_is_exact(lp):
    # The LPs above; `checked_pivots` asserts after each integer pivot that
    # it equals Fraction pivoting.
    with pytest.MonkeyPatch.context() as patch:
        pivots = checked_pivots(patch)
        solve_lp(**lp)
    event(f"pivoted: {bool(pivots)}")


@pytest.mark.parametrize("kwargs, expected", PINNED)
def test_every_pivot_of_the_pinned_lps_is_exact(monkeypatch, kwargs, expected):
    pivots = checked_pivots(monkeypatch)
    assert solve_lp(**kwargs).x == tuple(Fraction(v) for v in expected)
    assert pivots


@st.composite
def linear_systems(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    row = st.lists(small_rationals, min_size=ncols, max_size=ncols)
    M = draw(st.lists(row, min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(small_rationals, min_size=nrows, max_size=nrows))
    return M, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_systems())
def test_gauss_unique_solutions_satisfy_the_system(system):
    M, rhs = system
    kind, x = gauss_solve(M, rhs)
    assert kind in ("unique", "inconsistent", "underdetermined")
    if kind == "unique":
        for row, b in zip(M, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
