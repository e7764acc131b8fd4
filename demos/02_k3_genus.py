"""Elliptic genera from Chern numbers: K3, the quintic, and products.

Run as:  python3 demos/02_k3_genus.py
"""

from genera import genus, jacobi

QMAX = 4

k3 = genus.ChernData.load("k3")
quintic = genus.ChernData.load("quintic")

print(f"{k3.label}: dimc={k3.dimc}, Euler={genus.euler_number(k3)}")
print(f"{quintic.label}: dimc={quintic.dimc}, Euler={genus.euler_number(quintic)}")
print()

# the genus is a plain series of weight 0 and doubled index dimc
gk3 = genus.elliptic_genus(k3, nvars=1, qmax=QMAX)
print(f"genus(K3) carries (weight2, index2) = (0, {k3.dimc})")

# the K3 genus is exactly twice the index-1 generator
print("genus(K3) == 2*phi01:", gk3 == 2 * jacobi.generator("phi01", QMAX))

gq = genus.elliptic_genus(quintic, nvars=1, qmax=QMAX)
print("genus(quintic) == -100*phi032:", gq == -100 * jacobi.generator("phi032", QMAX))

# value at y = 1 recovers the Euler number
print("ev(genus(K3)) =", gk3.collapse_y().coeff(0))
print()

# multiplicativity: the genus of a product is the product of genera
k3sq = genus.chern_product(k3, k3)
print(f"K3 x K3 Chern numbers: {k3sq.numbers}")
lhs = genus.elliptic_genus(k3sq, nvars=1, qmax=3)
rhs = genus.elliptic_genus(k3, nvars=1, qmax=3) ** 2
print("genus(K3 x K3) == genus(K3)^2 through q^3:", lhs == rhs)
print()

# two elliptic variables: restricting to the diagonal z1 = z2 = z picks up
# a factor 2*a^2 against the one-variable genus
diag = genus.elliptic_genus(k3, nvars=2, qmax=3).diagonal()
a = jacobi.generator("a", 3)
want = 4 * a * a * jacobi.generator("phi01", 3)
print("diag(genus_2(K3)) == 4*a^2*phi01:", diag == want)
print("genus(K3) even in y:", jacobi.is_even(gk3))
