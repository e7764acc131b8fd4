"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of ints. Lattices are spanned by COLUMNS. There
is one reduction, column_echelon_with_transform: unimodular column moves
that bring a matrix to column echelon form and record the transform. The
rest is read off it. kernel_basis takes the transform columns of the zero
columns, solve and lattice_quotient back-substitute along the pivots, and
lattice_basis keeps the pivot columns. snf_diagonal alternates the echelon
between a matrix and its transpose to reach the Smith invariants.
quotient_presentation and order_in_quotient are built from those. Sizes
in this package never exceed a few dozen, so no attempt is made to control
entry growth beyond using exact ints.

sympy ships Smith and Hermite forms but not the transform matrices, and its
nullspace is rational, so the integer kernel lattice and integer particular
solutions are computed here directly. Tests cross-check invariant factors
against sympy.
"""

from __future__ import annotations

from math import gcd, prod

from genera.values import INF


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(M: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in M]


def from_columns(cols: list[list[int]], nrows: int) -> list[list[int]]:
    return [[col[i] for col in cols] for i in range(nrows)]


def column_echelon_with_transform(M: list[list[int]]):
    """Unimodular column reduction.

    INPUT:  M, an m x n integer matrix.
    OUTPUT: (H, V, pivots) with H = M @ V, V unimodular n x n, H in column
            echelon form: pivots is a list of (row, col) in increasing order,
            each pivot entry positive, entries in a pivot row vanish in all
            later columns, and columns without a pivot are identically zero.
    """
    m = len(M)
    n = len(M[0]) if M else 0
    H = [row[:] for row in M]
    V = identity(n)

    def swap(j1, j2):
        for row in H:
            row[j1], row[j2] = row[j2], row[j1]
        for row in V:
            row[j1], row[j2] = row[j2], row[j1]

    def addmul(jdst, jsrc, t):
        # column jdst += t * column jsrc
        for row in H:
            row[jdst] += t * row[jsrc]
        for row in V:
            row[jdst] += t * row[jsrc]

    def negate(j):
        for row in H:
            row[j] = -row[j]
        for row in V:
            row[j] = -row[j]

    pivots = []
    col = 0
    for r in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if H[r][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                if j != col:
                    swap(col, j)
                break
            j0 = min(nz, key=lambda j: abs(H[r][j]))
            for j in nz:
                if j != j0:
                    addmul(j, j0, -(H[r][j] // H[r][j0]))
        if H[r][col] != 0:
            if H[r][col] < 0:
                negate(col)
            pivots.append((r, col))
            col += 1
    return H, V, pivots


def kernel_basis(M: list[list[int]]) -> list[list[int]]:
    """Basis (columns) of {x in Z^n : M x = 0}. Full integer kernel lattice."""
    n = len(M[0]) if M else 0
    H, V, pivots = column_echelon_with_transform(M)
    pivot_cols = {c for _r, c in pivots}
    return [[V[i][j] for i in range(n)] for j in range(n) if j not in pivot_cols]


def _back_substitute(H: list[list[int]], pivots, b: list[int]):
    """Coordinates t with b = sum_k t_k * (column of pivot k of H), or None."""
    resid = list(b)
    coords = []
    for r, c in pivots:
        if resid[r] % H[r][c] != 0:
            return None
        t = resid[r] // H[r][c]
        coords.append(t)
        for i in range(len(H)):
            resid[i] -= t * H[i][c]
    return None if any(resid) else coords


def solve(M: list[list[int]], b: list[int]):
    """One integer solution x of M x = b, or None if none exists."""
    n = len(M[0]) if M else 0
    H, V, pivots = column_echelon_with_transform(M)
    coords = _back_substitute(H, pivots, b)
    if coords is None:
        return None
    z = [0] * n
    for (_r, c), t in zip(pivots, coords):
        z[c] = t
    return mat_vec(V, z)


def snf_diagonal(M: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of M, each positive.

    Column-reduces the matrix and then its transpose, keeping only the pivot
    columns each time, until every pivot column is zero off its pivot row;
    this ends because the leading pivot never grows, and once it stops
    shrinking its row and column are cleared. The pivots are then turned into
    the divisor chain by replacing each pair (d_i, d_j), i < j, with (gcd, lcm).

    >>> snf_diagonal([[2, 0], [0, 3]])
    [1, 6]
    """
    while True:
        H, _V, pivots = column_echelon_with_transform(M)
        if all(H[i][c] == 0 for r, c in pivots for i in range(len(H)) if i != r):
            break
        M = [[row[c] for row in H] for _r, c in pivots]
    diag = [H[r][c] for r, c in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def quotient_presentation(n: int, gens: list[list[int]]):
    """Presentation of Z^n / <gens as columns ... each gen a length-n vector>.

    OUTPUT: (free_rank, torsion) with torsion the invariant factors > 1.
    """
    diag = snf_diagonal(from_columns(gens, n))
    torsion = [d for d in diag if d > 1]
    return n - len(diag), torsion


def order_in_quotient(n: int, gens: list[list[int]], e: list[int]):
    """Order of e + <gens> in Z^n / <gens>; INF when infinite.

    That is the order of the cyclic group (<gens> + Ze) / <gens>.
    """
    free, torsion = lattice_quotient(n, gens + [e], gens)
    return INF if free else prod(torsion)


def lattice_basis(n: int, gens: list[list[int]]) -> list[list[int]]:
    """Echelon basis (columns) of the lattice spanned by gens inside Z^n."""
    H, _V, pivots = column_echelon_with_transform(from_columns(gens, n))
    return [[H[i][c] for i in range(n)] for _r, c in pivots]


def lattice_quotient(n: int, big: list[list[int]], small: list[list[int]]):
    """Presentation of <big>/<small>, both column-generating sets in Z^n.

    Every small generator must lie in <big>; raises otherwise.
    OUTPUT: (free_rank, torsion), like quotient_presentation.
    """
    H, _V, pivots = column_echelon_with_transform(from_columns(big, n))
    coords = []
    for v in small:
        c = _back_substitute(H, pivots, v)
        if c is None:
            raise ValueError("small lattice not contained in big lattice")
        coords.append(c)
    return quotient_presentation(len(pivots), coords)
