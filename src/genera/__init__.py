"""Exact computer algebra for elliptic-genus computations.

The package is organized in layers:

    series    truncated Laurent q-series, stored as integer numerators over one
              common denominator
    modular   level-one q-expansions: E2, E4, E6, Delta and eta3_sum = eta^3/q^(1/8)
    jacobi    weak Jacobi form generators and structural checks
    genus     characteristic-class elliptic genera from Chern numbers
    divis     Euler-number divisibility constants for four structure families
    cells     two-cell complex homotopy over graded coefficient tables
    hodge     hyperkaehler Hodge-number systems as integer relation rows, and
              the Euler divisors they force

Everything is exact: integers and fractions.Fraction, and no floats enter
any advertised result.
"""

__version__ = "0.1.0"
