"""Echelon GF(2) elimination and coface-indexed coboundary rows.

Both are checked against the oracles in ``oracles.py``: the dense
Gauss-Jordan pass the echelon solver replaced, and coboundary rows read off
the definition.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecert import (
    Cochain2,
    GF2Matrix,
    coboundary_matrix,
    complex_from_facets,
    gf2_rank,
    gf2_solve,
    intersection_cocycle,
    moment_curve_placement,
    skeleton_complex,
)
from oracles import brute_force_coboundary_rows, dense_gauss_jordan_gf2


def k4():
    return complex_from_facets([list(e) for e in combinations(range(1, 5), 2)])


def k33():
    return complex_from_facets([[i, j] for i in range(3) for j in range(3, 6)])


def torus(n: int):
    """The n x n triangulated torus: two triangles per square of the grid."""
    facets = []
    for i in range(n):
        for j in range(n):
            a, b = n * i + j, n * i + (j + 1) % n
            c, e = n * ((i + 1) % n) + j, n * ((i + 1) % n) + (j + 1) % n
            facets.append(sorted([a, c, e]))
            facets.append(sorted([a, b, e]))
    return complex_from_facets(facets)


TORUS_PARAMS = [3, 14, 8, 1, 11, 16, 5, 9, 2, 13, 7, 15, 4, 10, 12, 6]


@st.composite
def gf2_systems(draw):
    """At most 12 rows over at most 12 columns, with zero, duplicate and dependent rows."""
    n_cols = draw(st.integers(0, 12))
    vec = st.integers(0, (1 << n_cols) - 1)
    rows: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "dependent"]))
        if kind == "random" or not rows:
            rows.append(draw(vec) if kind == "random" else 0)
        elif kind == "zero":
            rows.append(0)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):  # a target inside the row space
        target = 0
        for row in draw(st.lists(st.sampled_from(rows), max_size=len(rows))):
            target ^= row
    else:
        target = draw(vec)
    columns = tuple(((2 * j,), (2 * j + 1,)) for j in range(n_cols))
    return GF2Matrix(columns, tuple(rows)), Cochain2(columns, target)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(gf2_systems())
def test_echelon_solver_matches_dense_gauss_jordan(system):
    M, v = system
    outcome = gf2_solve(M, v)
    reference = dense_gauss_jordan_gf2(M, v)
    assert outcome.vanishes == reference.vanishes
    assert outcome == reference  # rank and combination, or rank and witness
    span = {0}
    for row in M.rows:
        span |= {x ^ row for x in span}
    assert 1 << outcome.rank == len(span)
    assert gf2_rank(M) == outcome.rank


def sparse_gf2_system(rng: random.Random) -> tuple[GF2Matrix, Cochain2]:
    """A sparse system over 30-200 columns, shaped like the coboundary rows.

    Rows are 2-bit "chains" (two nearby columns, as on the torus, where
    reducing one row walks a long chain of pivots), 5-bit rows (as on a
    skeleton), duplicates of earlier rows and sums of two to four earlier
    rows.  The target is a sum of rows half the time, else a sparse or a
    dense vector.
    """
    n_cols = rng.randint(30, 200)
    rows: list[int] = []
    for _ in range(rng.randint(n_cols // 2, 3 * n_cols)):
        kind = rng.choice(["chain", "chain", "five", "duplicate", "dependent"])
        if kind == "duplicate" and rows:
            rows.append(rng.choice(rows))
        elif kind == "dependent" and len(rows) >= 2:
            acc = 0
            for row in rng.sample(rows, rng.randint(2, min(4, len(rows)))):
                acc ^= row
            rows.append(acc)
        elif kind == "five":
            rows.append(sum(1 << j for j in rng.sample(range(n_cols), 5)))
        else:
            j = rng.randrange(n_cols - 1)
            rows.append(1 << j | 1 << min(n_cols - 1, j + rng.randint(1, 4)))
    shape = rng.choice(["span", "span", "sparse", "dense"])
    if shape == "span":
        target = 0
        for row in rows:
            if rng.random() < 0.5:
                target ^= row
    elif shape == "sparse":
        target = sum(1 << j for j in rng.sample(range(n_cols), rng.randint(1, 6)))
    else:
        target = rng.getrandbits(n_cols)
    columns = tuple(((2 * j,), (2 * j + 1,)) for j in range(n_cols))
    return GF2Matrix(columns, tuple(rows)), Cochain2(columns, target)


def check_against_dense_gauss_jordan(M: GF2Matrix, v: Cochain2):
    outcome = gf2_solve(M, v)
    assert outcome == dense_gauss_jordan_gf2(M, v)
    assert gf2_rank(M) == outcome.rank
    return outcome


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_sparse_systems_match_dense_gauss_jordan(seed):
    check_against_dense_gauss_jordan(*sparse_gf2_system(random.Random(seed)))


def test_the_sparse_system_property_reaches_both_branches():
    # The same generator, seeded: the cochain must come out a coboundary
    # (a row combination) and outside the row space (a witness) often
    # enough, and some systems must reach full column rank, where the
    # elimination stops before the last rows (72, 48 and 11 of 120).
    rng = random.Random(13)
    seen = Counter()
    for _ in range(120):
        M, v = sparse_gf2_system(rng)
        outcome = check_against_dense_gauss_jordan(M, v)
        seen["vanishes" if outcome.vanishes else "nonvanishing"] += 1
        seen["full rank"] += outcome.rank == M.n_cols
    for what in ("vanishes", "nonvanishing", "full rank"):
        assert seen[what] >= 10, seen


# (complex, d, params, vanishes, rank, combination or witness as hex),
# captured from the dense solver
PINNED = {
    "D26": (skeleton_complex(6, 2), 2, None, False, 69, "3fffffffffffffffff"),
    "K5": (skeleton_complex(4, 1), 1, None, False, 14, "7fff"),
    "K33": (k33(), 1, None, False, 17, "3ffff"),
    "torus4": (torus(4), 2, None, True, 304, "0"),
    "torus4-shuffled": (
        torus(4), 2, TORUS_PARAMS, True, 304,
        "500020000000000000000000000028000000003d800000000040000000000048000a0000200000"
        "48000000000964007100012400040000000000000007aa4012100060000104b2",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_solutions_and_witnesses(name):
    K, d, params, vanishes, rank, proof = PINNED[name]
    cocycle = intersection_cocycle(K, d, moment_curve_placement(K, d, params))
    outcome = gf2_solve(coboundary_matrix(K, d), cocycle)
    assert outcome.vanishes is vanishes
    assert outcome.rank == rank
    bits = outcome.combination if vanishes else outcome.witness
    assert format(bits, "x") == proof


@pytest.mark.parametrize(
    "name, K, d",
    [
        ("K5", skeleton_complex(4, 1), 1),
        ("K4", k4(), 1),
        ("D26", skeleton_complex(6, 2), 2),
        ("skeleton(7,2)", skeleton_complex(7, 2), 2),
        ("torus4", torus(4), 2),
    ],
)
def test_coboundary_rows_match_the_definition(name, K, d):
    M = coboundary_matrix(K, d)
    assert M.n_rows > 0
    # the oracle's rows come in canonical (rho, tau) key order
    _keys, columns, rows = brute_force_coboundary_rows(K.facets(), d)
    assert (M.columns, M.rows) == (columns, rows)
    assert M.columns is intersection_cocycle(K, d, moment_curve_placement(K, d)).index
