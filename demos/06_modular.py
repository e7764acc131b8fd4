"""The level-one modular background: E4, E6, delta, and their relation.

Run as:  python3 demos/06_modular.py
"""

from genera import modular

QMAX = 6

e4 = modular.e4(QMAX)
e6 = modular.e6(QMAX)
delta = modular.delta(QMAX)

for name, f in (("E4", e4), ("E6", e6), ("delta", delta)):
    coeffs = [str(f.coeff(n)) for n in range(QMAX + 1)]
    print(f"{name:5} (weight2={f.weight2:2}): {coeffs}")

print()
print("1728*delta == E4^3 - E6^2:", modular.verify_ring_relation(QMAX))

# weight bookkeeping is enforced: mismatched weights refuse to add
try:
    e4 + e6
except ValueError as exc:
    print(f"E4 + E6 -> ValueError: {exc}")
print("E4 * E6 has weight2 =", (e4 * e6).weight2)
