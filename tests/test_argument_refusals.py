"""Library calls refuse malformed arguments with a named error and message.

No command line reaches these refusals (the document readers check first),
so each is called here directly.
"""

from __future__ import annotations

import re

import pytest

from nervecert.complexes import complex_from_facets, disjoint_simplex_pairs, is_remote
from nervecert.convex import HPolytope, boxes_disjoint, hulls_intersect
from nervecert.errors import DimensionMismatchError, NotAFaceError
from nervecert.linprog import gauss_solve, solve_lp
from nervecert.nerve import ConvexFamily
from nervecert.witness import assemble_witness_map

SQUARE = HPolytope.box([0, 0], [1, 1])
INTERVAL = HPolytope.box([0], [1])
EDGE = complex_from_facets([[0, 1]])
# every face of the edge, and a witness point in R^1 for each
POINTS = {(0,): (0,), (1,): (1,), (0, 1): (0,)}

REFUSALS = [
    (
        lambda: HPolytope.from_rows([[1, 0]], [1, 2]),
        DimensionMismatchError, "1 constraint rows but 2 right-hand sides",
    ),
    (
        lambda: HPolytope.from_rows([], []),
        DimensionMismatchError, "ambient dimension required for a row-free polytope",
    ),
    (
        lambda: HPolytope.from_rows([[1, 0], [1]], [1, 1]),
        DimensionMismatchError, "constraint row has 1 columns, ambient is 2",
    ),
    (lambda: HPolytope.box([0, 0], [1]), DimensionMismatchError, "box corners have different lengths"),
    (lambda: HPolytope.stack([]), ValueError, "cannot stack an empty collection"),
    (
        lambda: HPolytope.stack([SQUARE, INTERVAL]),
        DimensionMismatchError, "stacked polytopes must share the ambient dimension",
    ),
    (lambda: SQUARE.violated_row([0]), DimensionMismatchError, "point has 1 coordinates, ambient is 2"),
    (
        lambda: boxes_disjoint(SQUARE, INTERVAL),
        DimensionMismatchError, "bodies live in different ambient dimensions",
    ),
    (
        lambda: hulls_intersect([[0, 0]], [[0]]),
        DimensionMismatchError, "hulls live in different ambient dimensions",
    ),
    (lambda: hulls_intersect([], [[0]]), ValueError, "first hull needs at least one point"),
    (
        lambda: hulls_intersect([[0]], [[0], [0, 1]]),
        DimensionMismatchError, "second hull mixes ambient dimensions",
    ),
    (
        lambda: assemble_witness_map(EDGE, {**POINTS, (2,): (0,)}, 1),
        NotAFaceError, "witness key (2,) is not a face of the nerve",
    ),
    (
        lambda: assemble_witness_map(EDGE, {**POINTS, (1,): (1, 0)}, 1),
        DimensionMismatchError, "witness point for (1,) has 2 coordinates, ambient is 1",
    ),
    (
        lambda: assemble_witness_map(EDGE, {(0,): (0,)}, 1),
        ValueError, "witness assignment must cover every nerve face",
    ),
    (
        lambda: ConvexFamily.of(1, [(0, INTERVAL), (0, INTERVAL)]),
        ValueError, "family labels must be distinct",
    ),
    (
        lambda: ConvexFamily.of(1, [(-1, INTERVAL)]),
        ValueError, "labels must be nonnegative integers, got -1",
    ),
    (
        lambda: ConvexFamily.of(1, [(0, SQUARE)]),
        DimensionMismatchError, "body 0 lives in R^2, family in R^1",
    ),
    (lambda: solve_lp([1, 1], nonneg=[True]), ValueError, "nonneg has 1 flags for 2 variables"),
    (
        lambda: solve_lp([1, 1], A_ub=[[1]], b_ub=[1]),
        ValueError, "constraint row has 1 entries, expected 2",
    ),
    (
        lambda: solve_lp([1], A_eq=[[1]], b_eq=[1, 2]),
        ValueError, "right-hand side length disagrees with constraint count",
    ),
    (
        lambda: gauss_solve([[1, 0]], [1, 2]),
        ValueError, "row count and right-hand side length disagree",
    ),
    (lambda: is_remote(EDGE, (0,), (2,)), NotAFaceError, "(2,) is not a face of the complex"),
    (lambda: disjoint_simplex_pairs(EDGE, -1), ValueError, "dimension must be nonnegative, got -1"),
]


@pytest.mark.parametrize(
    "call, error, message",
    REFUSALS,
    ids=[
        "rows-without-rhs", "no-rows-no-ambient", "short-row", "box-corners",
        "stack-nothing", "stack-mixed", "violated-row-short-point", "boxes-mixed",
        "hulls-mixed", "hull-without-points", "hull-mixing-points", "witness-extra-key",
        "witness-point-length", "witness-uncovered", "family-repeated-label",
        "family-negative-label", "family-body-ambient", "lp-nonneg-flags", "lp-short-row",
        "lp-rhs-length", "gauss-rhs-length", "remote-second-face", "pairs-negative-d",
    ],
)
def test_a_malformed_argument_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert refused.type is error
