"""Integer linear algebra cross-checked against sympy and by brute force.

The strategies draw matrices as lists of rows, the way sympy reads them;
_intlin takes every matrix as its list of columns, so each test passes the
transpose.
"""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from genera import _intlin as il
from genera.values import INF


def matrices(max_dim=4, bound=9):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda rows: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.integers(min_value=-bound, max_value=bound),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=rows,
                max_size=rows,
            )
        )
    )


def columns(M):
    """The columns of a row-major matrix, in _intlin's format."""
    return [list(col) for col in zip(*M)]


def times(M, x):
    return [sum(a * t for a, t in zip(row, x)) for row in M]


def gen_lists(n, max_gens=4, bound=5):
    vec = st.lists(st.integers(min_value=-bound, max_value=bound), min_size=n, max_size=n)
    return st.lists(vec, min_size=0, max_size=max_gens)


@given(st.one_of(matrices(), matrices(max_dim=6, bound=1000)))
@settings(max_examples=120, deadline=None)
def test_snf_matches_sympy(M):
    mine = il.snf_diagonal(columns(M))
    S = smith_normal_form(sympy.Matrix(M))
    theirs = [abs(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0]
    assert mine == theirs


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_diagonal_is_transpose_invariant(M):
    assert il.snf_diagonal(M) == il.snf_diagonal(columns(M))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_echelon_transform_is_unimodular(M):
    H, V, pivots = il.column_echelon_with_transform(columns(M))
    # H and V are lists of columns, so sympy reads their transposes
    assert abs(sympy.Matrix(V).det()) == 1
    assert sympy.Matrix(M) * sympy.Matrix(V).T == sympy.Matrix(H).T
    for r, c in pivots:
        assert H[c][r] > 0
        for later in range(c + 1, len(H)):
            assert H[later][r] == 0


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_spans_nullspace(M):
    K = il.kernel_basis(columns(M))
    A = sympy.Matrix(M)
    for v in K:
        assert A * sympy.Matrix(v) == sympy.zeros(len(M), 1)
    assert len(K) == len(M[0]) - A.rank()


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_known_solutions(M, data):
    x = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=len(M[0]),
            max_size=len(M[0]),
        )
    )
    b = times(M, x)
    got = il.solve(columns(M), b)
    assert got is not None
    x1, kernel = got
    assert times(M, x1) == b
    # the kernel from the same echelon solves the homogeneous system
    A = sympy.Matrix(M)
    for v in kernel:
        assert A * sympy.Matrix(v) == sympy.zeros(len(M), 1)
    assert len(kernel) == len(M[0]) - A.rank()


def test_solve_detects_insolvability():
    assert il.solve([[2]], [1]) is None  # no integer solution
    assert il.solve([[2, 0], [0, 3]], [4, 9]) == ([2, 3], [])


def test_kernel_of_zero_length_generators_is_identity():
    assert il.kernel_basis([[], [], []]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_quotient_presentation_basics():
    # Z^2 / <(2,0),(0,3)> = Z/6
    assert il.quotient_presentation(2, [[2, 0], [0, 3]]) == (0, [6])
    # Z^2 / <(1,0)> = Z
    assert il.quotient_presentation(2, [[1, 0]]) == (1, [])
    # invariant factors kept only when > 1
    assert il.quotient_presentation(1, [[12]]) == (0, [12])
    assert il.quotient_presentation(1, [[1]]) == (0, [])
    assert il.quotient_presentation(2, []) == (2, [])
    # zero generators present nothing; a 1 x 3 and a 3 x 1 matrix
    assert il.quotient_presentation(3, [[0, 0, 0], [0, 0, 0]]) == (3, [])
    assert il.quotient_presentation(1, [[4], [6], [0]]) == (0, [2])
    assert il.quotient_presentation(3, [[4, 6, 10]]) == (2, [2])
    # Z^0 / <two zero-length generators> is the trivial group
    assert il.quotient_presentation(0, [[], []]) == (0, [])


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), gen_lists(n))
))
@settings(max_examples=50, deadline=None)
def test_quotient_presentation_matches_sympy_snf(n_and_gens):
    n, gens = n_and_gens
    free, torsion = il.quotient_presentation(n, gens)
    if gens:
        S = smith_normal_form(sympy.Matrix(gens).T)
        diag = [abs(S[i, i]) for i in range(min(S.shape))]
    else:
        diag = []
    rank = sum(1 for d in diag if d != 0)
    assert free == n - rank
    assert torsion == [d for d in diag if d > 1]


def test_order_in_quotient_hand_cases():
    assert il.order_in_quotient([[12]], [1]) == 12
    assert il.order_in_quotient([[12]], [4]) == 3
    assert il.order_in_quotient([[12]], [0]) == 1
    assert il.order_in_quotient([[0]], [1]) is INF  # infinite order
    assert il.order_in_quotient([[2, 0], [0, 3]], [1, 1]) == 6
    # no relations: only zero has finite order
    assert il.order_in_quotient([], [0, 0]) == 1
    assert il.order_in_quotient([], [0, 5]) is INF
    # e already in the lattice
    assert il.order_in_quotient([[2, 4], [0, 6]], [4, 14]) == 1


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-12, max_value=12),
)
def test_order_in_cyclic_group_gcd_law(m, a):
    # order of a in Z/m is m/gcd(a,m)
    got = il.order_in_quotient([[m]], [a])
    assert got == m // math.gcd(a, m)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        gen_lists(n, max_gens=3),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
    )
))
@settings(max_examples=50, deadline=None)
def test_order_in_quotient_is_minimal(case):
    n, gens, e = case
    cols = gens if gens else [[0] * n]
    k = il.order_in_quotient(gens, e)
    if k is INF:
        for j in range(1, 13):
            assert il.solve(cols, [j * x for x in e]) is None
    else:
        assert il.solve(cols, [k * x for x in e]) is not None
        for j in range(1, k):
            assert il.solve(cols, [j * x for x in e]) is None


def test_lattice_basis_and_quotient():
    basis = il.lattice_basis([[2, 0], [0, 2]])
    assert len(basis) == 2
    assert il.lattice_quotient([[1, 0], [0, 1]], [[2, 0], [0, 2]]) == (0, [2, 2])
    # index-6 sublattice of a rank-1 lattice inside Z^2
    assert il.lattice_quotient([[1, 1]], [[6, 6]]) == (0, [6])
    with pytest.raises(ValueError):
        il.lattice_quotient([[2, 0]], [[1, 0]])  # small not inside big
