"""Tour of the five weight-graded generators and their ring relation.

Run as:  python3 demos/01_generators.py
"""

from genera import jacobi

QMAX = 4

print("generator  (weight2, index2)  q^0 layer")
for name, (weight2, index2) in jacobi.GRADINGS.items():
    layer = jacobi.generator(name, QMAX).q_layer(0)
    coeffs = [(R[0], str(c)) for R, c in sorted(layer.items())]
    print(f"{name:9}  ({weight2:3}, {index2})         {coeffs}")

print()
print("ev (value at y = 1); the odd generator collapses to 0")
for name in jacobi.GRADINGS:
    print(f"  ev({name}) = {jacobi.generator(name, QMAX).collapse_y().coeff(0)}")

# 4 phi04 = phi01 * phi032^2 - phi02^2, checked coefficientwise
p1 = jacobi.generator("phi01", QMAX)
p32 = jacobi.generator("phi032", QMAX)
p2 = jacobi.generator("phi02", QMAX)
p4 = jacobi.generator("phi04", QMAX)
relation = 4 * p4 == p1 * p32 * p32 - p2 * p2
print()
print(f"4*phi04 == phi01*phi032^2 - phi02^2 through q^{QMAX}:", relation)

# each generator obeys the elliptic transformation law in its own index
print()
for name, (_weight2, index2) in jacobi.GRADINGS.items():
    rep = jacobi.check_elliptic_law(jacobi.generator(name, 8), index2, 1)
    print(f"law for {name:7} at lambda=1: ok={rep.ok} ({rep.pairs_checked} pairs)")
