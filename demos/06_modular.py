"""The level-one modular background: E4, E6, delta, and their relation.

Run as:  python3 demos/06_modular.py
"""

from genera import modular

QMAX = 6

# each form is a pure q-series; its doubled weight is a fact of the form,
# not something the series carries
FORMS = (("E4", 8, modular.e4(QMAX)),
         ("E6", 12, modular.e6(QMAX)),
         ("delta", 24, modular.delta(QMAX)))

for name, weight2, f in FORMS:
    coeffs = [str(f.coeff(n)) for n in range(QMAX + 1)]
    print(f"{name:5} (weight2={weight2:2}): {coeffs}")

print()
print("1728*delta == E4^3 - E6^2:", modular.verify_ring_relation(QMAX))
