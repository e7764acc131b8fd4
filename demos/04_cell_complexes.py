"""Walking the long exact sequence of a two-cell complex.

The bundled tables hold the stable stems in degrees 0..7 and the connective
tmf pattern in 0..8.  Attaching a cell along nu or eta gives a cofiber whose
homotopy is pinned degree by degree, up to a visible extension problem when
both ends of the sequence survive.

Run as:  python3 demos/04_cell_complexes.py
"""

from genera import cells

pi_tmf = cells.table_load("pi_tmf")
mod_nu = cells.complex_load("tmf_mod_nu")
mod_eta = cells.complex_load("tmf_mod_eta")

print("pi_* of tmf with a 4-cell attached along nu:")
for d in range(9):
    g = cells.cofiber_homotopy(mod_nu, pi_tmf, d)
    tag = "  <- extension unresolved" if g.ambiguous else ""
    print(f"  pi_{d} = {g.describe()}{tag}")

print()
print("image orders of k'nu in the eta-cofiber (the even-k SU estimate):")
for kp in (1, 2, 3, 4, 6, 12):
    n = cells.image_order_in_cofiber(pi_tmf.element([(kp, "nu")]), mod_eta, pi_tmf)
    print(f"  k'={kp:2}: order {n}")

print()
print("engine vs closed form for the easy SU constant:")
from genera import divis

for k in range(1, 13):
    got = cells.dsu_easy(k, pi_tmf, mod_eta)
    want = divis.d_su_easy_closed(k)
    print(f"  k={k:2}: engine={got}  closed={want}  agree={got == want}")

# order of an element given by a sum of generators
order = cells.element_order(cells.table_load("pi_S"), [(1, "eta"), (8, "nu")])
print()
print(f"order of eta + 8nu in the stable stems: {order}")
