"""Exact integer linear algebra on small dense matrices.

One format throughout: a matrix, and the lattice its columns span, is a list
of generators, each a list of n ints (the columns of an n x k matrix). There
is one reduction, column_echelon_with_transform: unimodular column moves
that bring the generators to column echelon form and record the transform.
The rest is read off it. The pivots sit in the leading columns, so
kernel_basis keeps the transform columns after them, lattice_basis keeps the
pivot columns themselves, and solve and lattice_quotient back-substitute
along the pivots. snf_diagonal alternates the echelon between a matrix and
its transpose to reach the Smith invariants. quotient_presentation and
order_in_quotient are built from those. Sizes in this package never exceed
a few dozen, so no attempt is made to control entry growth beyond using
exact ints.

sympy ships Smith and Hermite forms but not the transform matrices, and its
nullspace is rational, so the integer kernel lattice and integer particular
solutions are computed here directly. Tests cross-check invariant factors
against sympy.
"""

from __future__ import annotations

from math import gcd, prod

from genera.values import INF


def column_echelon_with_transform(cols: list[list[int]]):
    """Unimodular column reduction.

    INPUT:  cols, k generators in Z^n: the columns of an n x k matrix M.
    OUTPUT: (H, V, pivots) with H = M @ V as k columns of length n, V
            unimodular k x k as k columns of length k, H in column echelon
            form: pivots is a list of (row, col) in increasing order with
            col = 0, 1, ..., each pivot entry positive, entries in a pivot row
            vanish in all later columns, and columns without a pivot are
            identically zero.
    """
    H = [list(c) for c in cols]
    k = len(H)
    n = len(H[0]) if H else 0
    V = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    pivots = []
    col = 0
    for r in range(n):
        if col >= k:
            break
        while True:
            nz = [j for j in range(col, k) if H[j][r] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                if j != col:
                    for X in (H, V):
                        X[col], X[j] = X[j], X[col]
                break
            j0 = min(nz, key=lambda j: abs(H[j][r]))
            for j in nz:
                if j != j0:
                    # column j -= t * column j0
                    t = H[j][r] // H[j0][r]
                    for X in (H, V):
                        X[j] = [a - t * b for a, b in zip(X[j], X[j0])]
        if H[col][r] != 0:
            if H[col][r] < 0:
                for X in (H, V):
                    X[col] = [-a for a in X[col]]
            pivots.append((r, col))
            col += 1
    return H, V, pivots


def kernel_basis(cols: list[list[int]]) -> list[list[int]]:
    """Basis of {x in Z^k : sum_j x_j cols[j] = 0}. Full integer kernel lattice."""
    _H, V, pivots = column_echelon_with_transform(cols)
    return V[len(pivots):]


def _back_substitute(H: list[list[int]], pivots, b: list[int]):
    """Coordinates t with b = sum_k t_k * (column of pivot k of H), or None."""
    resid = list(b)
    coords = []
    for r, c in pivots:
        if resid[r] % H[c][r] != 0:
            return None
        t = resid[r] // H[c][r]
        coords.append(t)
        resid = [a - t * h for a, h in zip(resid, H[c])]
    return None if any(resid) else coords


def solve(cols: list[list[int]], b: list[int]):
    """Integer solutions of sum_j x_j cols[j] = b, from one echelon.

    OUTPUT: (x, kernel) with x one solution and kernel a basis of the
            homogeneous solutions, as from kernel_basis; None if no integer
            solution exists.
    """
    H, V, pivots = column_echelon_with_transform(cols)
    coords = _back_substitute(H, pivots, b)
    if coords is None:
        return None
    x = [sum(t * v[i] for t, v in zip(coords, V)) for i in range(len(V))]
    return x, V[len(pivots):]


def snf_diagonal(M: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of M, each positive.

    M may be given as its columns or as its rows: a matrix and its transpose
    have the same invariants. Column-reduces the matrix and then its
    transpose, keeping only the pivot columns each time, until every pivot
    column is zero off its pivot row; this ends because the leading pivot
    never grows, and once it stops shrinking its row and column are cleared.
    The pivots are then turned into the divisor chain by replacing each pair
    (d_i, d_j), i < j, with (gcd, lcm).

    >>> snf_diagonal([[2, 0], [0, 3]])
    [1, 6]
    """
    while True:
        H, _V, pivots = column_echelon_with_transform(M)
        if all(a == 0 for r, c in pivots for i, a in enumerate(H[c]) if i != r):
            break
        M = [list(row) for row in zip(*H[:len(pivots)])]
    diag = [H[c][r] for r, c in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def quotient_presentation(n: int, gens: list[list[int]]):
    """Presentation of Z^n / <gens>, each gen a length-n vector.

    OUTPUT: (free_rank, torsion) with torsion the invariant factors > 1.
    """
    diag = snf_diagonal(gens)
    torsion = [d for d in diag if d > 1]
    return n - len(diag), torsion


def order_in_quotient(gens: list[list[int]], e: list[int]):
    """Order of e + <gens> in Z^n / <gens>; INF when infinite.

    That is the order of the cyclic group (<gens> + Ze) / <gens>.
    """
    free, torsion = lattice_quotient(gens + [e], gens)
    return INF if free else prod(torsion)


def lattice_basis(gens: list[list[int]]) -> list[list[int]]:
    """Echelon basis of the lattice spanned by gens."""
    H, _V, pivots = column_echelon_with_transform(gens)
    return H[:len(pivots)]


def lattice_quotient(big: list[list[int]], small: list[list[int]]):
    """Presentation of <big>/<small>, both generating sets in one Z^n.

    Every small generator must lie in <big>; raises otherwise.
    OUTPUT: (free_rank, torsion), like quotient_presentation.
    """
    H, _V, pivots = column_echelon_with_transform(big)
    coords = []
    for v in small:
        c = _back_substitute(H, pivots, v)
        if c is None:
            raise ValueError("small lattice not contained in big lattice")
        coords.append(c)
    return quotient_presentation(len(pivots), coords)
