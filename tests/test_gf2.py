"""Echelon GF(2) elimination and coface-indexed coboundary rows.

Both are checked against the oracles in ``oracles.py``: the dense
Gauss-Jordan pass the echelon solver replaced, and coboundary rows read off
the definition.  The oracles, the engine's cochains and witnesses, and the
certificate documents all keep column j at bit j.
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
from nervecert.obstruction import reverse_columns
from oracles import (
    brute_force_coboundary_rows,
    dense_gauss_jordan_gf2,
    matrix_from_rows,
    matrix_rows,
    union_find_rank,
)


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


@pytest.mark.parametrize(
    "bits, n, flipped",
    [
        (0, 0, 0),
        (0, 5, 0),
        (0b11111, 5, 0b11111),
        (1, 1, 1),
        (0b1, 4, 0b1000),  # columns 1..3 are zero
        (0b0110, 4, 0b0110),
        (0b0011, 6, 0b110000),
        (0b001011001, 9, 0b100110100),
        ((1 << 70) - 1, 70, (1 << 70) - 1),
    ],
)
def test_reverse_columns_is_an_involution(bits, n, flipped):
    assert reverse_columns(bits, n) == flipped
    assert all(flipped >> (n - 1 - j) & 1 == bits >> j & 1 for j in range(n))
    assert reverse_columns(flipped, n) == bits


@pytest.mark.parametrize("bits, n", [(1, 0), (0b100, 2), (-1, 3)])
def test_reverse_columns_refuses_a_bit_past_the_columns(bits, n):
    with pytest.raises(ValueError, match="at or above"):
        reverse_columns(bits, n)


def solve_by_column(M: GF2Matrix, v: Cochain2):
    """gf2_solve and gf2_rank of one system."""
    return gf2_solve(M, v), gf2_rank(M)


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
    return matrix_from_rows(columns, rows), Cochain2(columns, target)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(gf2_systems())
def test_echelon_solver_matches_dense_gauss_jordan(system):
    M, v = system
    outcome, rank = solve_by_column(M, v)
    reference = dense_gauss_jordan_gf2(M, v)
    assert outcome.vanishes == reference.vanishes
    assert outcome == reference  # rank and combination, or rank and witness
    span = {0}
    for row in matrix_rows(M):
        span |= {x ^ row for x in span}
    assert 1 << outcome.rank == len(span)
    assert rank == outcome.rank


def sparse_gf2_system(rng: random.Random, tall: bool = False) -> tuple[GF2Matrix, Cochain2]:
    """A sparse system over 30-200 columns, shaped like the coboundary rows.

    Rows are 2-bit "chains" (two nearby columns, as on the torus, where
    reducing one row walks a long chain of pivots), 5-bit rows (as on a
    skeleton), duplicates of earlier rows and sums of two to four earlier
    rows.  A tall system has 4n to 8n rows, all chains, the shape of
    Delta_{2d+2}^(d), where rows outnumber columns and nearly all of them
    are dependent.  The target is a sum of rows half the time, else a
    sparse or a dense vector.
    """
    n_cols = rng.randint(30, 200)
    rows: list[int] = []
    low, high = (4 * n_cols, 8 * n_cols) if tall else (n_cols // 2, 3 * n_cols)
    for _ in range(rng.randint(low, high)):
        kind = "chain" if tall else rng.choice(["chain", "chain", "five", "duplicate", "dependent"])
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
    return matrix_from_rows(columns, rows), Cochain2(columns, target)


def check_against_dense_gauss_jordan(M: GF2Matrix, v: Cochain2):
    outcome, rank = solve_by_column(M, v)
    assert outcome == dense_gauss_jordan_gf2(M, v)
    assert rank == outcome.rank
    return outcome


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_sparse_systems_match_dense_gauss_jordan(seed):
    check_against_dense_gauss_jordan(*sparse_gf2_system(random.Random(seed)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_tall_sparse_systems_match_dense_gauss_jordan(seed):
    check_against_dense_gauss_jordan(*sparse_gf2_system(random.Random(seed), tall=True))


def test_the_sparse_system_property_reaches_both_branches():
    # The same generator, seeded: the cochain must come out a coboundary
    # (a row combination) and outside the row space (a witness) often
    # enough, and some systems must reach full column rank, where the
    # elimination stops before the last rows (72, 48 and 11 of 120).  Then
    # 40 tall systems must reach both branches too.
    rng = random.Random(13)
    seen = Counter()
    for tall in [False] * 120 + [True] * 40:
        M, v = sparse_gf2_system(rng, tall)
        outcome = check_against_dense_gauss_jordan(M, v)
        shape = "tall " if tall else ""
        seen[shape + ("vanishes" if outcome.vanishes else "nonvanishing")] += 1
        seen["full rank"] += outcome.rank == M.n_cols
        seen["tall"] += tall and M.n_rows >= 4 * M.n_cols
    for what in ("vanishes", "nonvanishing", "full rank", "tall", "tall vanishes", "tall nonvanishing"):
        assert seen[what] >= 10, seen


# (complex, d, params, vanishes, rank, combination or witness as hex),
# captured from the dense solver.  The all-ones witnesses read the same in
# either bit order; K6's (weight 15 of 45 pairs) does not, so it pins
# column j at bit j.
PINNED = {
    "D26": (skeleton_complex(6, 2), 2, None, False, 69, "3fffffffffffffffff"),
    "K5": (skeleton_complex(4, 1), 1, None, False, 14, "7fff"),
    "K6": (skeleton_complex(5, 1), 1, None, False, 35, "12402cb2cb"),
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
    assert (M.columns, matrix_rows(M)) == (columns, rows)
    assert M.columns is intersection_cocycle(K, d, moment_curve_placement(K, d)).index


@pytest.mark.parametrize(
    "name, K, d, rank",
    [
        ("Delta_4^(1)", skeleton_complex(4, 1), 1, 14),
        ("Delta_6^(2)", skeleton_complex(6, 2), 2, 69),
        ("Delta_8^(3)", skeleton_complex(8, 3), 3, 314),
        ("Delta_10^(4)", skeleton_complex(10, 4), 4, 1385),
        ("torus4", torus(4), 2, 304),
        ("torus6", torus(6), 2, 2124),
    ],
)
def test_rank_matches_union_find(name, K, d, rank):
    # Every row of these systems has at most two ones: two on 2d + 3
    # vertices (the parity argument of the van Kampen-Flores oracle), and on
    # a surface each edge lies in at most two triangles.  The solve with
    # the zero cochain never stops early, so it counts the rank in its own
    # pass, in forward order; gf2_rank feeds the columns last pair first.
    M = coboundary_matrix(K, d)
    cocycle = intersection_cocycle(K, d, moment_curve_placement(K, d))
    zero = Cochain2(M.columns, 0)
    assert union_find_rank(M) == rank
    assert gf2_rank(M) == gf2_solve(M, cocycle).rank == gf2_solve(M, zero).rank == rank
