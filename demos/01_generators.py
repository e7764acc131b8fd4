"""Tour of the five weight-graded generators and their ring relation.

Run as:  python3 demos/01_generators.py
"""

from genera import jacobi

QMAX = 4

print("generator  (weight2, index2)  q^0 layer")
for name in jacobi.GENERATOR_NAMES:
    f = jacobi.generator(name, QMAX)
    layer = f.series.q_layer(0)
    coeffs = [(R[0], str(c)) for R, c in sorted(layer.items())]
    print(f"{name:9}  ({f.weight2:3}, {f.index2})         {coeffs}")

print()
print("ev (value at y = 1); the odd generator collapses to 0")
for name in jacobi.GENERATOR_NAMES:
    f = jacobi.generator(name, QMAX)
    print(f"  ev({name}) = {jacobi.ev_z0(f).coeff(0)}")

# 4 phi04 = phi01 * phi032^2 - phi02^2, checked coefficientwise
p1 = jacobi.generator("phi01", QMAX)
p32 = jacobi.generator("phi032", QMAX)
p2 = jacobi.generator("phi02", QMAX)
p4 = jacobi.generator("phi04", QMAX)
lhs = p4.series * 4
rhs = (p1 * (p32 * p32)).series - (p2 * p2).series
print()
print(f"4*phi04 == phi01*phi032^2 - phi02^2 through q^{QMAX}:", (lhs - rhs).is_zero)

# each generator obeys the elliptic transformation law in its own index
print()
for name in jacobi.GENERATOR_NAMES:
    f = jacobi.generator(name, 8)
    rep = jacobi.check_elliptic_law(f, 1)
    print(f"law for {name:7} at lambda=1: ok={rep.ok} ({rep.pairs_checked} pairs)")
