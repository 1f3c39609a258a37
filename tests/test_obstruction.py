"""Crossing cocycles, coboundary systems, GF(2) certificates."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from nervecert import (
    GenericityError,
    ObstructionCertificate,
    coboundary_matrix,
    complex_from_facets,
    gf2_solve,
    intersection_cocycle,
    moment_curve_placement,
    obstruction_vanishes,
    skeleton_complex,
)
from oracles import brute_force_coboundary_rows, matrix_rows, moment_interleaving_parity

K5 = skeleton_complex(4, 1)
D26 = skeleton_complex(6, 2)


def k4():
    return complex_from_facets([list(e) for e in combinations(range(1, 5), 2)])


def k33():
    return complex_from_facets([[i, j] for i in range(3) for j in range(3, 6)])


def support(cochain) -> list:
    """The pairs whose bit is set, in index order."""
    return [pair for i, pair in enumerate(cochain.index) if cochain.bits >> i & 1]


def test_placement_points_sit_on_the_moment_curve():
    pl = moment_curve_placement(K5, 1)
    for v in sorted(K5.vertices):
        t = Fraction(v + 1)
        assert pl.point(v) == (t, t * t)
    pl4 = moment_curve_placement(D26, 2)
    assert pl4.point(0) == (1, 1, 1, 1)
    assert pl4.point(2) == (3, 9, 27, 81)


def test_placement_rejects_duplicates_and_wrong_dimension():
    with pytest.raises(GenericityError):
        moment_curve_placement(K5, 1, [1, 2, 3, 4, 4])
    with pytest.raises(ValueError):
        moment_curve_placement(D26, 1)  # 2-complex into R^2
    with pytest.raises(ValueError):
        moment_curve_placement(K5, 1, [1, 2, 3])


def test_k5_cocycle_is_the_interleaving_pattern():
    pl = moment_curve_placement(K5, 1)
    coc = intersection_cocycle(K5, 1, pl)
    assert coc.weight == 5
    assert len(coc.index) == 15
    expected = {
        ((a, c), (b, d))
        for a, b, c, d in combinations(range(5), 4)
    }
    assert set(support(coc)) == expected
    for i, (gamma, delta) in enumerate(coc.index):
        assert coc.bits >> i & 1 == moment_interleaving_parity(
            [g + 1 for g in gamma], [h + 1 for h in delta]
        )


def test_k4_cocycle_single_bit():
    K = k4()
    coc = intersection_cocycle(K, 1, moment_curve_placement(K, 1))
    assert len(coc.index) == 3
    assert coc.weight == 1
    assert support(coc) == [((1, 3), (2, 4))]


def test_path_has_empty_pair_index():
    path = complex_from_facets([[1, 2], [2, 3]])
    coc = intersection_cocycle(path, 1, moment_curve_placement(path, 1))
    assert coc.index == ()
    assert coc.bits == 0


def test_d2_cocycle_counts_interleaved_triples():
    pl = moment_curve_placement(D26, 2)
    coc = intersection_cocycle(D26, 2, pl)
    assert len(coc.index) == 70
    for i, (gamma, delta) in enumerate(coc.index):
        assert coc.bits >> i & 1 == moment_interleaving_parity(gamma, delta)
    # one interleaved split per 6-subset of the 7 parameters
    assert coc.weight == 7


def test_coboundary_shapes():
    M5 = coboundary_matrix(K5, 1)
    assert (M5.n_rows, M5.n_cols) == (30, 15)
    assert all(r.bit_count() == 2 for r in matrix_rows(M5))
    M4 = coboundary_matrix(k4(), 1)
    assert (M4.n_rows, M4.n_cols) == (12, 3)
    assert all(r.bit_count() == 1 for r in matrix_rows(M4))
    M26 = coboundary_matrix(D26, 2)
    assert (M26.n_rows, M26.n_cols) == (210, 70)
    assert all(r.bit_count() == 2 for r in matrix_rows(M26))


def test_k4_row_construction_detail():
    K = k4()
    M = coboundary_matrix(K, 1)
    keys, _, _ = brute_force_coboundary_rows(K.facets(), 1)
    row = matrix_rows(M)[keys.index(((1,), (2, 4)))]
    assert row == 1 << M.columns.index(((1, 3), (2, 4)))


def test_gf2_solver_against_brute_force_on_k4():
    K = k4()
    M = coboundary_matrix(K, 1)
    coc = intersection_cocycle(K, 1, moment_curve_placement(K, 1))
    outcome = gf2_solve(M, coc)
    assert outcome.vanishes
    reachable = set()
    rows = matrix_rows(M)
    for combo in range(1 << M.n_rows):
        acc = 0
        for i in range(M.n_rows):
            if (combo >> i) & 1:
                acc ^= rows[i]
        reachable.add(acc)
        if acc == coc.bits:
            break
    assert coc.bits in reachable


def test_gf2_solver_zero_vector():
    M = coboundary_matrix(K5, 1)
    zero = intersection_cocycle(K5, 1, moment_curve_placement(K5, 1))
    zero = type(zero)(zero.index, 0)
    outcome = gf2_solve(M, zero)
    assert outcome.vanishes
    assert outcome.combination == 0


def test_gf2_infeasibility_witness_for_k5():
    M = coboundary_matrix(K5, 1)
    coc = intersection_cocycle(K5, 1, moment_curve_placement(K5, 1))
    outcome = gf2_solve(M, coc)
    assert not outcome.vanishes
    y = outcome.witness
    assert all((row & y).bit_count() % 2 == 0 for row in matrix_rows(M))
    assert (coc.bits & y).bit_count() % 2 == 1
    # even rows + odd cocycle weight: independent reason the solve must fail
    assert all(r.bit_count() % 2 == 0 for r in matrix_rows(M))
    assert coc.weight % 2 == 1


def test_obstruction_verdicts():
    assert obstruction_vanishes(k4(), 1).vanishes
    assert not obstruction_vanishes(K5, 1).vanishes
    assert not obstruction_vanishes(k33(), 1).vanishes
    assert not obstruction_vanishes(D26, 2).vanishes


def test_verdicts_are_placement_invariant():
    param_sets = {
        "K5": [None, [2, 3, 5, 7, 11], [Fraction(1, 2), 1, Fraction(5, 2), 4, 9]],
        "K4": [None, [3, 5, 7, 11], [Fraction(-3), Fraction(1, 3), 2, 8]],
        "K33": [None, [2, 3, 5, 7, 11, 13], [1, 4, 9, 16, 25, 36]],
        "D26": [None, [2, 3, 5, 7, 11, 13, 17], [1, 2, 4, 8, 16, 32, 64]],
    }
    complexes = {"K5": (K5, 1), "K4": (k4(), 1), "K33": (k33(), 1), "D26": (D26, 2)}
    expected = {"K5": False, "K4": True, "K33": False, "D26": False}
    for name, (K, d) in complexes.items():
        for params in param_sets[name]:
            placement = moment_curve_placement(K, d, params)
            assert obstruction_vanishes(K, d, placement).vanishes == expected[name]


def test_k5_total_parity_is_odd_for_random_placements():
    rng = random.Random(307)
    for _ in range(12):
        params = rng.sample(range(-40, 41), 5)
        params = [Fraction(p, rng.randint(1, 4)) for p in params]
        if len(set(params)) != 5:
            continue
        placement = moment_curve_placement(K5, 1, params)
        coc = intersection_cocycle(K5, 1, placement)
        assert coc.weight % 2 == 1


def test_certificates_reverify_against_the_matrix():
    for K, d in [(k4(), 1), (K5, 1), (k33(), 1), (D26, 2)]:
        cert = obstruction_vanishes(K, d)
        assert cert.verify(coboundary_matrix(K, d))
        assert not cert.verify(coboundary_matrix(K5 if K is not K5 else k4(), 1))


@pytest.mark.parametrize("K, d", [(k4(), 1), (K5, 1), (D26, 2)], ids=["K4", "K5", "D26"])
def test_a_certificate_fails_against_a_relabelled_matrix(K, d):
    # Shifting every label keeps the order, so the relabelled matrix has the
    # same rows and bits; only its pair index names other faces.
    shifted = complex_from_facets([[v + 10 for v in facet] for facet in K.facets()])
    cert = obstruction_vanishes(K, d)
    M = coboundary_matrix(shifted, d)
    assert (M.n_rows, M.cols) == (cert.n_rows, coboundary_matrix(K, d).cols)
    assert not cert.verify(M)


def test_certificates_with_a_bit_past_the_system_fail():
    for K, d in [(k4(), 1), (K5, 1)]:
        cert = obstruction_vanishes(K, d)
        M = coboundary_matrix(K, d)
        stray = (
            replace(cert, combination=cert.combination | 1 << M.n_rows)
            if cert.vanishes
            else replace(cert, witness=cert.witness | 1 << M.n_cols)
        )
        assert cert.verify(M) and not stray.verify(M)


def test_cocycle_dimension_guard():
    M = coboundary_matrix(K5, 1)
    K = k4()
    coc = intersection_cocycle(K, 1, moment_curve_placement(K, 1))
    with pytest.raises(ValueError):
        gf2_solve(M, coc)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_van_kampen_flores_parity_oracle(d):
    # Row (rho, tau) has a one for each d-face sigma = rho + v disjoint from
    # tau, so it has n - 2d - 1 ones on n vertices: an even number on
    # 2d + 3 vertices, where the all-ones functional is orthogonal to every
    # row, and an odd one on 2d + 4.  On Delta_{2d+2}^(d) the cocycle has
    # odd weight (one interleaved split per 2d+2 of the 2d+3 parameters),
    # so the all-ones functional proves the obstruction nonvanishing with
    # no elimination.
    for n, accepted in ((2 * d + 3, True), (2 * d + 4, False)):
        K = skeleton_complex(n - 1, d)
        cocycle = intersection_cocycle(K, d, moment_curve_placement(K, d))
        M = coboundary_matrix(K, d)
        ones = (1 << M.n_cols) - 1
        # verify does not read the rank
        cert = ObstructionCertificate(False, cocycle, 0, M.n_rows, None, ones)
        assert cert.verify(M) is accepted, n
    assert not obstruction_vanishes(skeleton_complex(2 * d + 2, d), d).vanishes
    # On 2d + 3 vertices the rows span all but one dimension, so the witness
    # the solve returns is the all-ones functional itself, in any layout.
    K = skeleton_complex(2 * d + 2, d)
    M = coboundary_matrix(K, d)
    outcome = gf2_solve(M, intersection_cocycle(K, d, moment_curve_placement(K, d)))
    assert outcome.rank == M.n_cols - 1
    assert outcome.witness == (1 << M.n_cols) - 1
