"""Hodge-number constraints for the constrained genus ansatz, k = 2 and 3.

Matching q^0 coefficients of the ansatz against signed column sums of the
Hodge square leaves affine relations among the h^{p,q}; eliminating the
Euler unknown (or the middle ansatz parameter at k = 3) exposes the
integral relations, and the integer solution lattice fixes a divisor of
the Euler number.

Run as:  python3 demos/05_hodge.py
"""

from genera import hodge

for k in (2, 3):
    system = hodge.hk_match(k)
    print(f"k = {k}: unknowns {', '.join(system.unknowns)}")
    for eq in system.equations:
        print(f"  0 = {hodge.relation_str(system.unknowns, eq)}")
    if k == 2:
        (rel,) = system.eliminate("Euler")
        print(f"  eliminating Euler:  0 = {hodge.relation_str(system.unknowns, rel)}")
    else:
        for rel in system.eliminate("A", indices=(1, 2)):
            print(f"  eliminating A from the middle pair:  0 = "
                  f"{hodge.relation_str(system.unknowns, rel)}")
    with_p = hodge.hk_divisibility(k)
    without = hodge.hk_divisibility(k, use_parity=False)
    print(f"  Euler divisor: {with_p} (with parity), {without} (equations alone)")
    print()

# a known point on the k = 2 variety, and a failed perturbation
system = hodge.hk_match(2)
witness = {"h11": 21, "h12": 0, "h22": 232, "Euler": 324}
print("witness h11=21 h12=0 h22=232 Euler=324 accepted:", system.check(witness))
witness["h22"] += 1
print("perturbing h22 by one rejected:", not system.check(witness))

# scanning the solution family: parity of h12 controls 12 | Euler
print()
print("family points (h11, h12) -> Euler:")
for h11, h12 in ((21, 0), (5, 2), (0, 0), (3, 1)):
    euler = 72 + 12 * h11 - 6 * h12
    point = {"h11": h11, "h12": h12, "h22": 8 * h11 - 2 * h12 + 64, "Euler": euler}
    print(f"  ({h11:2}, {h12}) -> Euler = {euler:4}"
          f"  admissible={system.check(point)}  12|Euler={euler % 12 == 0}")
