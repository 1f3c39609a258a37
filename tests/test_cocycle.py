"""The crossing cocycle by parameter interleaving.

`intersection_cocycle` reads each pair's bit off the parameter ranks; the
oracle in ``oracles.py`` solves the barycentric system of every pair with
`convex.crossing`, as the cocycle was computed before.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nervecert.certificates
from nervecert import (
    complex_from_facets,
    intersection_cocycle,
    moment_curve_placement,
    skeleton_complex,
)
from nervecert.cli import main
from oracles import gauss_crossing_cocycle_bits
from test_gf2 import TORUS_PARAMS, torus


@st.composite
def placed_subcomplexes(draw):
    """A random set of d-faces of skeleton(n, d) with distinct signed parameters."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(d, 9))
    facets = draw(
        st.lists(
            st.sampled_from(list(combinations(range(n + 1), d + 1))),
            min_size=1,
            max_size=14,
            unique=True,
        )
    )
    K = complex_from_facets(facets)
    params = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=7),
            min_size=len(K.vertices),
            max_size=len(K.vertices),
            unique=True,
        )
    )
    return K, d, moment_curve_placement(K, d, params)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(placed_subcomplexes())
def test_interleaving_cocycle_matches_the_gauss_solves(case):
    K, d, placement = case
    cocycle = intersection_cocycle(K, d, placement)
    assert cocycle.bits == gauss_crossing_cocycle_bits(K, d, placement)


# (complex, d, params, number of pairs, cocycle as hex), captured from the
# per-pair Gauss solves
PINNED = {
    "K5": (skeleton_complex(4, 1), 1, None, 15, "2198"),
    "D26": (skeleton_complex(6, 2), 2, None, 70, "200000c0063000000"),
    "torus4-shuffled": (
        torus(4), 2, TORUS_PARAMS, 304,
        "380000003d8020014000348000025a808000120088000001c903000007000000001400",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_cocycles(name):
    K, d, params, n_pairs, bits = PINNED[name]
    cocycle = intersection_cocycle(K, d, moment_curve_placement(K, d, params))
    assert len(cocycle.index) == n_pairs
    assert format(cocycle.bits, "x") == bits


def test_vkf_demo_refuses_an_interleaving_pair_the_solve_does_not_cross(monkeypatch):
    monkeypatch.setattr(nervecert.certificates, "crossing", lambda a, b: None)
    with pytest.raises(AssertionError, match="does not cross"):
        main(["vkf-demo", "-d", "1"])


def test_crossing_parity_reads_ranks_not_values():
    K = skeleton_complex(3, 1)
    placement = moment_curve_placement(K, 1, [Fraction(-7, 2), 10, 0, Fraction(1, 3)])
    # parameter order: 0 < 2 < 3 < 1
    assert placement.ranks == {0: 0, 2: 1, 3: 2, 1: 3}
    assert placement.crossing_parity((0, 3), (1, 2)) == 1
    assert placement.crossing_parity((0, 2), (1, 3)) == 0
    assert placement.crossing_parity((0, 1), (2, 3)) == 0
