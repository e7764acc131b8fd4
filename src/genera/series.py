"""Truncated multivariate Laurent q-series with exact coefficients.

The ring is Q[y_1^{1/2}, y_1^{-1/2}, ..., y_n^{1/2}, y_n^{-1/2}][[q]] / q^{qmax+1}.
Half-integer exponents are handled by storing DOUBLED y-exponents: the key
(n, (R_1, ..., R_nvars)) holds the coefficient of q^n * prod_i y_i^{R_i/2}.
So R = 2 means y^1 and R = 1 means y^{1/2}.

Coefficients are fractions.Fraction and zero coefficients are never stored.
Series are immutable by convention: no method mutates self, every operation
returns a fresh instance. Binary operations truncate to the smaller qmax.

There is no truncation in the y-direction; every q-layer must be a finite
Laurent polynomial, which holds for everything built here.

>>> a = LaurentSeries.monomial(1, 4, 0, (1,)) - LaurentSeries.monomial(1, 4, 0, (-1,))
>>> sorted((a * a).q_layer(0).items())
[((-2,), Fraction(1, 1)), ((0,), Fraction(-2, 1)), ((2,), Fraction(1, 1))]
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


def coeff_to_str(c: Fraction) -> str:
    """Decimal string for integers, "p/q" otherwise. Exact either way."""
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def coeff_from_str(s) -> Fraction:
    # Lenient on input: accept ints too. Output is always strings.
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def require_keys(obj, *keys) -> None:
    """Raise ValueError unless obj is a JSON object holding every key."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")


class LaurentSeries:
    __slots__ = ("nvars", "qmax", "coeffs")

    def __init__(self, nvars: int, qmax: int, coeffs: Mapping | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        self.nvars = nvars
        self.qmax = qmax
        clean: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        if coeffs:
            for key, val in coeffs.items():
                n, R = key
                R = tuple(R)
                if not isinstance(n, int) or not all(isinstance(r, int) for r in R):
                    raise TypeError(f"bad key {key!r}")
                if len(R) != nvars:
                    raise ValueError(f"key {key!r} has {len(R)} y-exponents, expected {nvars}")
                if n < 0:
                    raise ValueError(f"negative q-power in key {key!r}")
                if n > qmax:
                    continue  # silently truncate
                c = val if isinstance(val, Fraction) else Fraction(val)
                if c != 0:
                    clean[(n, R)] = c
        self.coeffs = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int, qmax: int) -> "LaurentSeries":
        return cls(nvars, qmax)

    @classmethod
    def one(cls, nvars: int, qmax: int) -> "LaurentSeries":
        return cls(nvars, qmax, {(0, (0,) * nvars): Fraction(1)})

    @classmethod
    def const(cls, nvars: int, qmax: int, c) -> "LaurentSeries":
        return cls(nvars, qmax, {(0, (0,) * nvars): Fraction(c)})

    @classmethod
    def monomial(cls, nvars: int, qmax: int, n: int, R: Iterable[int], c=1) -> "LaurentSeries":
        return cls(nvars, qmax, {(n, tuple(R)): Fraction(c)})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def coeff(self, n: int, R) -> Fraction:
        """Coefficient of q^n * y^(R/2). R may be an int when nvars == 1."""
        if isinstance(R, int):
            if self.nvars != 1:
                raise ValueError("integer R only allowed for nvars == 1")
            R = (R,)
        return self.coeffs.get((n, tuple(R)), Fraction(0))

    def q_layer(self, n: int) -> dict[tuple[int, ...], Fraction]:
        """All y-coefficients of q^n, as a dict R-tuple -> Fraction."""
        return {R: c for (m, R), c in self.coeffs.items() if m == n}

    def terms(self) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
        for (n, R) in sorted(self.coeffs):
            yield n, R, self.coeffs[(n, R)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.nvars, self.qmax, self.coeffs) == (other.nvars, other.qmax, other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.qmax, tuple(sorted(self.coeffs.items()))))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        def mono(n, R, c):
            factors = []
            if n == 1:
                factors.append("q")
            elif n != 0:
                factors.append(f"q^{n}")
            for i, r in enumerate(R):
                if r == 0:
                    continue
                name = "y" if self.nvars == 1 else f"y{i + 1}"
                if r == 2:
                    factors.append(name)
                elif r % 2 == 0:
                    factors.append(f"{name}^{r // 2}")
                else:
                    factors.append(f"{name}^({r}/2)")
            if not factors:
                return coeff_to_str(c)
            head = "" if c == 1 else ("-" if c == -1 else coeff_to_str(c) + "*")
            return head + "*".join(factors)

        ts = list(self.terms())
        if not ts:
            body = "0"
        else:
            body = " + ".join(mono(n, R, c) for n, R, c in ts[:8]).replace("+ -", "- ")
            if len(ts) > 8:
                body += f" + ... ({len(ts)} terms)"
        return f"<series nvars={self.nvars} qmax={self.qmax}: {body}>"

    # ------------------------------------------------------------------
    # ring operations

    def _common(self, other: "LaurentSeries") -> int:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        return min(self.qmax, other.qmax)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(self.nvars, self.qmax, other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        qmax = self._common(other)
        out: dict = {}
        for (n, R), c in self.coeffs.items():
            if n <= qmax:
                out[(n, R)] = c
        for (n, R), c in other.coeffs.items():
            if n <= qmax:
                out[(n, R)] = out.get((n, R), Fraction(0)) + c
        return LaurentSeries(self.nvars, qmax, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.nvars, self.qmax,
                             {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(self.nvars, self.qmax, other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return LaurentSeries(self.nvars, self.qmax)
            return LaurentSeries(self.nvars, self.qmax,
                                 {k: v * c for k, v in self.coeffs.items()})
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        qmax = self._common(other)
        out: dict = {}
        for (n1, R1), c1 in self.coeffs.items():
            if n1 > qmax:
                continue
            for (n2, R2), c2 in other.coeffs.items():
                n = n1 + n2
                if n > qmax:
                    continue
                key = (n, tuple(r1 + r2 for r1, r2 in zip(R1, R2)))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return LaurentSeries(self.nvars, qmax, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = LaurentSeries.one(self.nvars, self.qmax)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse, when the q^0 layer is a single monomial.

        The leading layer c * y^(R0/2) must consist of exactly one term with
        c != 0; the inverse is then c^{-1} y^{-R0/2} * sum_j u^j where
        u = 1 - c^{-1} y^{-R0/2} * self has positive q-order.
        """
        lead = self.q_layer(0)
        if len(lead) != 1:
            raise ValueError(
                f"not invertible here: q^0 layer has {len(lead)} terms, need exactly 1")
        (R0, c0), = lead.items()
        lead_inv = LaurentSeries.monomial(self.nvars, self.qmax, 0,
                                          tuple(-r for r in R0), Fraction(1, 1) / c0)
        u = LaurentSeries.one(self.nvars, self.qmax) - lead_inv * self
        # u has q-order >= 1, so the geometric series terminates at qmax.
        acc = LaurentSeries.one(self.nvars, self.qmax)
        upow = u
        for _ in range(self.qmax):
            if upow.is_zero:
                break
            acc = acc + upow
            upow = upow * u
        return acc * lead_inv

    # ------------------------------------------------------------------
    # substitutions and reshaping

    def truncate(self, qmax: int) -> "LaurentSeries":
        if qmax >= self.qmax:
            if qmax == self.qmax:
                return self
            raise ValueError("cannot extend a truncated series")
        return LaurentSeries(self.nvars, qmax,
                             {k: c for k, c in self.coeffs.items() if k[0] <= qmax})

    def diagonal(self) -> "LaurentSeries":
        """Identify all y-variables: returns a 1-variable series with R = sum R_i."""
        if self.nvars == 0:
            raise ValueError("no variables to identify")
        out: dict = {}
        for (n, R), c in self.coeffs.items():
            key = (n, (sum(R),))
            out[key] = out.get(key, Fraction(0)) + c
        return LaurentSeries(1, self.qmax, out)

    def embed(self, nvars: int, slot: int) -> "LaurentSeries":
        """View a 1-variable series inside an nvars-variable ring, y -> y_slot."""
        if self.nvars != 1:
            raise ValueError("embed expects a 1-variable series")
        if not 0 <= slot < nvars:
            raise ValueError("slot out of range")
        out = {}
        for (n, (r,)), c in self.coeffs.items():
            R = [0] * nvars
            R[slot] = r
            out[(n, tuple(R))] = c
        return LaurentSeries(nvars, self.qmax, out)

    def collapse_y(self) -> "LaurentSeries":
        """Set every y_i = 1, leaving a pure q-series (nvars = 0)."""
        out: dict = {}
        for (n, _R), c in self.coeffs.items():
            key = (n, ())
            out[key] = out.get(key, Fraction(0)) + c
        return LaurentSeries(0, self.qmax, out)

    def as_integral(self) -> "LaurentSeries":
        """Return self; raises if any coefficient is fractional."""
        if not self.is_integral:
            bad = [(k, c) for k, c in sorted(self.coeffs.items()) if c.denominator != 1][:3]
            raise ValueError(f"non-integral coefficients, e.g. {bad}")
        return self

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        return {
            "nvars": self.nvars,
            "qmax": self.qmax,
            "integral": self.is_integral,
            "terms": [[n, list(R), coeff_to_str(c)] for n, R, c in self.terms()],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "LaurentSeries":
        require_keys(obj, "nvars", "qmax", "terms")
        try:
            nvars = int(obj["nvars"])
            qmax = int(obj["qmax"])
            coeffs = {}
            for n, R, c in obj["terms"]:
                key = (int(n), tuple(int(r) for r in R))
                if key in coeffs:
                    raise ValueError(f"duplicate term {key}")
                coeffs[key] = coeff_from_str(c)
        except TypeError as exc:  # a wrong JSON type where a number or list belongs
            raise ValueError(f"malformed series: {exc}") from None
        s = cls(nvars, qmax, coeffs)
        if obj.get("integral"):
            s = s.as_integral()
        return s
