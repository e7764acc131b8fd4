"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of ints. Lattices are spanned by COLUMNS.
Everything here is elementary unimodular column manipulation; sizes in this
package never exceed a few dozen, so no attempt is made to control entry
growth beyond using exact ints.

sympy ships Smith and Hermite forms but not the transform matrices, and its
nullspace is rational, so the integer kernel lattice and integer particular
solutions are computed here directly. Tests cross-check invariant factors
against sympy.
"""

from __future__ import annotations

from math import prod


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(M: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in M]


def columns(M: list[list[int]]) -> list[list[int]]:
    if not M:
        return []
    return [[M[i][j] for i in range(len(M))] for j in range(len(M[0]))]


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
    if n == 0:
        return []
    H, V, pivots = column_echelon_with_transform(M)
    pivot_cols = {c for _r, c in pivots}
    return [[V[i][j] for i in range(n)] for j in range(n) if j not in pivot_cols]


def solve(M: list[list[int]], b: list[int]):
    """One integer solution x of M x = b, or None if none exists."""
    m = len(M)
    n = len(M[0]) if M else 0
    H, V, pivots = column_echelon_with_transform(M)
    z = [0] * n
    resid = list(b)
    for r, c in pivots:
        if resid[r] % H[r][c] != 0:
            return None
        t = resid[r] // H[r][c]
        z[c] = t
        for i in range(m):
            resid[i] -= t * H[i][c]
    if any(resid):
        return None
    return mat_vec(V, z)


def solve_affine(M: list[list[int]], b: list[int]):
    """(particular solution, kernel basis) for M x = b, or None if unsolvable."""
    x0 = solve(M, b)
    if x0 is None:
        return None
    return x0, kernel_basis(M)


def snf_diagonal(M: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of M, each positive."""
    A = [row[:] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    out: list[int] = []
    top = 0
    left = 0
    while top < m and left < n:
        # locate smallest nonzero entry in the working block
        best = None
        for i in range(top, m):
            for j in range(left, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[left], row[bj] = row[bj], row[left]
        # clear row and column; restart if a division leaves a remainder
        dirty = False
        for i in range(top + 1, m):
            if A[i][left] % A[top][left] != 0:
                dirty = True
            t = A[i][left] // A[top][left]
            for j in range(left, n):
                A[i][j] -= t * A[top][j]
        for j in range(left + 1, n):
            if A[top][j] % A[top][left] != 0:
                dirty = True
            t = A[top][j] // A[top][left]
            for i in range(top, m):
                A[i][j] -= t * A[i][left]
        if dirty or any(A[i][left] for i in range(top + 1, m)) \
                 or any(A[top][j] for j in range(left + 1, n)):
            continue
        d = abs(A[top][left])
        # enforce the divisibility chain: fold in any entry d does not divide
        bad = None
        for i in range(top + 1, m):
            for j in range(left + 1, n):
                if A[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(left, n):
                A[top][j] += A[bad][j]
            continue
        out.append(d)
        top += 1
        left += 1
    return out


def quotient_presentation(n: int, gens: list[list[int]]):
    """Presentation of Z^n / <gens as columns ... each gen a length-n vector>.

    OUTPUT: (free_rank, torsion) with torsion the invariant factors > 1.
    """
    if n == 0:
        return 0, []
    if not gens:
        return n, []
    M = from_columns(gens, n)
    diag = snf_diagonal(M)
    torsion = [d for d in diag if d > 1]
    return n - len(diag), torsion


def order_in_quotient(n: int, gens: list[list[int]], e: list[int]):
    """Order of e + <gens> in Z^n / <gens>; None means infinite.

    Uses the torsion-size ratio: adjoining e either lowers the free rank
    (infinite order) or divides the torsion size by exactly ord(e).
    """
    rank, torsion = quotient_presentation(n, gens)
    rank2, torsion2 = quotient_presentation(n, gens + [e])
    if rank2 < rank:
        return None
    t1, t2 = prod(torsion), prod(torsion2)
    if t1 % t2 != 0:
        raise AssertionError("torsion ratio not integral; broken reduction")
    return t1 // t2


def lattice_basis(n: int, gens: list[list[int]]) -> list[list[int]]:
    """Echelon basis (columns) of the lattice spanned by gens inside Z^n."""
    if not gens:
        return []
    M = from_columns(gens, n)
    H, _V, pivots = column_echelon_with_transform(M)
    return [[H[i][c] for i in range(n)] for _r, c in pivots]


def lattice_quotient(n: int, big: list[list[int]], small: list[list[int]]):
    """Presentation of <big>/<small>, both column-generating sets in Z^n.

    Every small generator must lie in <big>; raises otherwise.
    OUTPUT: (free_rank, torsion), like quotient_presentation.
    """
    B = lattice_basis(n, big)
    if not B:
        if any(any(v) for v in small):
            raise ValueError("small lattice not contained in big lattice")
        return 0, []
    Bmat = from_columns(B, n)
    coords = []
    for v in small:
        c = solve(Bmat, v)
        if c is None:
            raise ValueError("small lattice not contained in big lattice")
        coords.append(c)
    return quotient_presentation(len(B), coords)
