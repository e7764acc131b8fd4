"""The four families of Euler-number divisibility constants, side by side.

Run as:  python3 demos/03_divisibility.py
"""

from genera import divis, jacobi
from genera.values import value_str

print("  ".join(f"{c:>10}" for c in divis.TABLE_COLUMNS))
for row in divis.table_rows(16):
    print("  ".join(f"{row[c]:>10}" for c in divis.TABLE_COLUMNS))

print()
print("d_clas cross-checked against the gcd of a weight-0 monomial basis:")
for k in range(1, 13):
    basis = jacobi.dclas_gcd_via_basis(k)
    closed = divis.d_clas(k)
    print(f"  k={k:2}: closed={value_str(closed):>4}  basis={value_str(basis):>4}")

print()
print("where the easy SU bound is not sharp (first few cases):")
gaps = [k for k in range(2, 60) if divis.d_su(k) != divis.d_su_easy_closed(k)]
print(" ", gaps, " (k = 2 mod 8, k >= 10: the exact constant doubles)")

print()
print("d_sp against 2*d_clas(2k); the factor 2 drops exactly at 8 | k:")
for k in (4, 6, 8, 12, 16, 20, 24):
    flag = "==" if divis.d_sp(k) == 2 * divis.d_clas(2 * k) else "!="
    print(f"  k={k:2}: d_sp={divis.d_sp(k):2}  {flag}  2*d_clas(2k)={2 * divis.d_clas(2 * k)}")

print()
print("verdicts for a candidate Euler number:")
for structure, k, euler in (("SU", 3, 144), ("SU", 3, 101), ("Sp", 2, 24), ("SO", 2, 7)):
    v = divis.euler_verdict(structure, k, euler)
    print(f"  {structure:2} k={k} euler={euler:4}: ok={v.ok}  ({v.note})")
