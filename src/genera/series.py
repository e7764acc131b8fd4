"""Truncated multivariate Laurent q-series with exact coefficients.

The ring is Q[y_1^{1/2}, y_1^{-1/2}, ..., y_n^{1/2}, y_n^{-1/2}][[q]] / q^{qmax+1}.
Half-integer exponents are handled by storing DOUBLED y-exponents: the key
(n, (R_1, ..., R_nvars)) holds the coefficient of q^n * prod_i y_i^{R_i/2}.
So R = 2 means y^1 and R = 1 means y^{1/2}.

A series stores one positive integer denominator `den` and a dict `nums`
from keys to nonzero integer numerators: the coefficient of a key is
nums[key] / den. The pair is kept normalized, gcd(den, every numerator) = 1,
so den is the least common denominator of the coefficients: it is 1 exactly
when the series is integral, and 1 for the zero series. Each series has one
stored form, which == and hash compare.

The arithmetic runs on these integers alone, and the module imports
`fractions` only where a Fraction is asked for: the accessors `coeff`,
`q_layer`, `terms` and the read-only mapping view `coeffs` (whose
iteration, `in`, `len` and `keys()` build none) return fractions.Fraction
coefficients, `coeff_from_str` parses a coefficient string that is not a
decimal integer into one, and the constructor reads a value other than an
int or a Fraction through Fraction(value). Scalar operands of +, - and *
are an int (bool included) or a Fraction; `to_obj` writes "p/q" strings
straight from the numerators and den.

Series are immutable by convention: no method mutates self, so an operation
whose result is an operand (x ** 1, a truncation to the same qmax) may return
that operand. Binary operations truncate to the smaller qmax.
The public constructor and `from_obj` check every key and value; results of
operations on series that are already valid come from `_build`, which checks
nothing and only normalizes.

There is no truncation in the y-direction; every q-layer must be a finite
Laurent polynomial, which holds for everything built here.

A product of two series is one integer multiplication (Kronecker
substitution). The stored numerators of each operand are packed into one
signed int with a w-bit slot per key (n, R_1, ..., R_k), w a multiple of 8,
in mixed radix: the radix of each y-variable is the width of the product's R
range in steps of the gcd of the exponent differences, so no slot overflows
into the next. A slot holds at most max|a| * max|b| * min(#a, #b) in
absolute value, plus a sign bit. Adding 2^(w-1) to every slot of the
q-layers 0..qmax of the product makes them nonnegative fields that unpack
without borrows; the product of the two denominators is the denominator.

The packing is dense, so its memory grows with the slot count
(qmax + 1) * prod(radix), that is with the product of the exponent ranges,
and not with the term counts: squaring y1^50 y2^50 + y1^-50 y2^-50 +
q y1^(1/2) y2^(1/2) at qmax 3 needs 643204 slots for 9 term pairs. When the
slot count exceeds MAX_SLOTS_PER_PAIR times #a * #b, the product is the
schoolbook double loop over the numerators instead. This is a robustness
guard that bounds memory by the term counts, not a tuning knob: every
product the generators and the genus make stays far below it.

>>> a = LaurentSeries.monomial(1, 4, 0, (1,)) - LaurentSeries.monomial(1, 4, 0, (-1,))
>>> sorted((a * a).q_layer(0).items())
[((-2,), Fraction(1, 1)), ((0,), Fraction(-2, 1)), ((2,), Fraction(1, 1))]
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from genera.values import json_int, require_keys

if TYPE_CHECKING:
    from fractions import Fraction

# Dense packing is used while (product slots) <= MAX_SLOTS_PER_PAIR * #a * #b.
MAX_SLOTS_PER_PAIR = 16


def _ratio_str(p: int, q: int) -> str:
    """The string of p/q for q >= 1, reduced, with the sign on the numerator:
    a decimal integer when q divides p, "p/q" otherwise."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def coeff_to_str(c: Fraction) -> str:
    """Decimal string for integers, "p/q" otherwise. Exact either way."""
    return _ratio_str(c.numerator, c.denominator)


def _fraction(*args) -> Fraction:
    """fractions.Fraction(*args); the first call loads `fractions`."""
    from fractions import Fraction

    return Fraction(*args)


def coeff_from_str(s) -> int | Fraction:
    """A JSON integer as is, a string of ASCII digits with an optional leading
    "-" through int(), and any other string through Fraction; bools, floats,
    other JSON values and a zero denominator raise ValueError."""
    if type(s) is int:
        return s
    if not isinstance(s, str):
        raise ValueError(f"term coefficient must be a JSON integer or string, got {s!r}")
    if s.isascii() and s.removeprefix("-").isdigit():
        return int(s)
    try:
        return _fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"term coefficient {s!r} has a zero denominator") from None


class _Coeffs(Mapping):
    """Read-only view of a series' terms as Fraction coefficients."""
    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key) -> Fraction:
        return _fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, key) -> bool:
        return key in self._nums

    def keys(self):
        return self._nums.keys()


def _scalar(x) -> tuple[int, int] | None:
    """(p, q) with x = p/q in lowest terms and q >= 1 when x is an int (bool
    included) or a fractions.Fraction; None for any other value.

    A Fraction exists only once `fractions` is loaded, so looking it up in
    sys.modules is exact and imports nothing.
    """
    if isinstance(x, int):
        return int(x), 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _build(nvars: int, qmax: int, nums: dict, den: int = 1) -> "LaurentSeries":
    """The series nums / den, trusted: keys valid and at most qmax, nums nonzero, den >= 1.

    Checks nothing and only normalizes, dividing out gcd(den, nums).
    """
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    s = object.__new__(LaurentSeries)
    s.nvars = nvars
    s.qmax = qmax
    s.den = den
    s.nums = nums
    return s


def _schoolbook(a: dict, b: dict, qmax: int) -> dict:
    """Nonzero numerators of a * b up to qmax, by the double loop over both terms."""
    out: dict = {}
    for (n1, R1), c1 in a.items():
        for (n2, R2), c2 in b.items():
            n = n1 + n2
            if n <= qmax:
                key = (n, tuple(r1 + r2 for r1, r2 in zip(R1, R2)))
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


class LaurentSeries:
    __slots__ = ("nvars", "qmax", "den", "nums")

    def __init__(self, nvars: int, qmax: int, coeffs: Mapping | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        self.nvars = nvars
        self.qmax = qmax
        clean: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
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
                pq = _scalar(val)
                if pq is None:
                    c = _fraction(val)
                    pq = c.numerator, c.denominator
                if pq[0]:
                    clean[(n, R)] = pq
        # the least common denominator of reduced fractions leaves gcd 1
        den = math.lcm(*(q for _p, q in clean.values()))
        self.den = den
        self.nums = {k: p * (den // q) for k, (p, q) in clean.items()}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int, qmax: int) -> "LaurentSeries":
        return cls(nvars, qmax)

    @classmethod
    def one(cls, nvars: int, qmax: int) -> "LaurentSeries":
        return cls(nvars, qmax, {(0, (0,) * nvars): 1})

    @classmethod
    def monomial(cls, nvars: int, qmax: int, n: int, R: Iterable[int], c=1) -> "LaurentSeries":
        return cls(nvars, qmax, {(n, tuple(R)): c})

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self) -> Mapping:
        """The terms as a read-only mapping key -> Fraction."""
        return _Coeffs(self.nums, self.den)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def _known(self, n: int) -> None:
        """Raise ValueError when q^n lies above qmax, where nothing is known."""
        if n > self.qmax:
            raise ValueError(f"q^{n} is above qmax = {self.qmax}: its coefficient is unknown")

    def coeff(self, n: int, R=()) -> Fraction:
        """Coefficient of q^n * y^(R/2), with one entry of R per y-variable.

        An int R means (R,), and the default () reads a pure q-series. A
        negative n reads 0; an n above qmax is a ValueError.
        """
        R = (R,) if isinstance(R, int) else tuple(R)
        if len(R) != self.nvars:
            raise ValueError(f"R = {R} has length {len(R)}, not nvars = {self.nvars}")
        self._known(n)
        return _fraction(self.nums.get((n, R), 0), self.den)

    def q_layer(self, n: int) -> dict[tuple[int, ...], Fraction]:
        """All y-coefficients of q^n, as a dict R-tuple -> Fraction; an n above
        qmax is a ValueError."""
        self._known(n)
        return {R: _fraction(v, self.den) for (m, R), v in self.nums.items() if m == n}

    def terms(self) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
        for (n, R), v in sorted(self.nums.items()):
            yield n, R, _fraction(v, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return ((self.nvars, self.qmax, self.den, self.nums)
                == (other.nvars, other.qmax, other.den, other.nums))

    def __hash__(self):
        return hash((self.nvars, self.qmax, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

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

    def _kept(self, qmax: int) -> dict:
        """The numerators of the terms up to q^qmax."""
        if qmax >= self.qmax:
            return self.nums
        return {k: v for k, v in self.nums.items() if k[0] <= qmax}

    def _constant(self, pq: tuple[int, int]) -> "LaurentSeries":
        """The constant p/q in the ring and at the qmax of self."""
        p, q = pq
        return _build(self.nvars, self.qmax, {(0, (0,) * self.nvars): p} if p else {}, q)

    def __add__(self, other):
        pq = _scalar(other)
        if pq is not None:
            other = self._constant(pq)
        elif not isinstance(other, LaurentSeries):
            return NotImplemented
        qmax = self._common(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {k: v * sa for k, v in self._kept(qmax).items()}
        for k, v in other._kept(qmax).items():
            s = out.get(k, 0) + v * sb
            if s:
                out[k] = s
            else:
                del out[k]  # v != 0, so a zero sum means k was there
        return _build(self.nvars, qmax, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _build(self.nvars, self.qmax, {k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        pq = _scalar(other)
        if pq is not None:
            other = self._constant(pq)
        elif not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pq = _scalar(other)
        if pq is not None:
            p, q = pq
            if p == 0:
                return _build(self.nvars, self.qmax, {})
            return _build(self.nvars, self.qmax, {k: v * p for k, v in self.nums.items()},
                          self.den * q)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        qmax = self._common(other)
        a, b = self._kept(qmax), other._kept(qmax)
        den = self.den * other.den
        if not a or not b:
            return _build(self.nvars, qmax, {})

        # Mixed radix over (n, digit_1, ..., digit_k), digit_i = (R_i - lo_i) // step_i.
        # radix_i spans the product's range, so digit sums never carry.
        lo_a, lo_b, steps, radix = [], [], [], []
        for i in range(self.nvars):
            ra = [R[i] for _, R in a]
            rb = [R[i] for _, R in b]
            la, lb = min(ra), min(rb)
            step = math.gcd(*(r - la for r in ra), *(r - lb for r in rb)) or 1
            lo_a.append(la)
            lo_b.append(lb)
            steps.append(step)
            radix.append((max(ra) - la + max(rb) - lb) // step + 1)
        places = []
        layer = 1  # slots per q-layer
        for r in reversed(radix):
            places.append(layer)
            layer *= r
        places.reverse()
        nslots = (qmax + 1) * layer
        if nslots > MAX_SLOTS_PER_PAIR * len(a) * len(b):
            return _build(self.nvars, qmax, _schoolbook(a, b, qmax), den)

        # Every product slot sums at most min(#a, #b) products: with a sign bit
        # it fits in `width` bytes.
        bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
                 * min(len(a), len(b)))
        width = (bound.bit_length() + 8) // 8

        def pack(nums, lo):
            idx = {key: key[0] * layer + sum((r - l) // s * p for r, l, s, p
                                               in zip(key[1], lo, steps, places))
                   for key in nums}
            zero = bytes(width)
            pos = [zero] * (max(idx.values()) + 1)
            neg = pos.copy()
            for key, v in nums.items():
                if v > 0:
                    pos[idx[key]] = v.to_bytes(width, "little")
                else:
                    neg[idx[key]] = (-v).to_bytes(width, "little")
            return (int.from_bytes(b"".join(pos), "little")
                    - int.from_bytes(b"".join(neg), "little"))

        # Adding half = 2^(8*width - 1) to every slot of q-layers 0..qmax makes
        # each one a nonnegative byte field; the mask drops the layers above.
        half = 1 << (8 * width - 1)
        empty = half.to_bytes(width, "little")  # a zero slot after the offset
        offset = int.from_bytes(empty * nslots, "little")
        total = (pack(a, lo_a) * pack(b, lo_b) + offset) & ((1 << (8 * width * nslots)) - 1)
        data = total.to_bytes(width * nslots, "little")

        ys = list(itertools.product(*(range(la + lb, la + lb + r * s, s) for la, lb, r, s
                                      in zip(lo_a, lo_b, radix, steps))))
        out: dict = {}
        j = 0
        for n in range(qmax + 1):
            for R in ys:
                chunk = data[j:j + width]
                j += width
                if chunk != empty:
                    out[(n, R)] = int.from_bytes(chunk, "little") - half
        return _build(self.nvars, qmax, out, den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        if k == 0:
            return LaurentSeries.one(self.nvars, self.qmax)
        result = None  # the constant 1, never multiplied in
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse of a pure q-series (every y-exponent 0).

        With c_k the coefficient of q^k and c_0 != 0, the inverse is the
        recurrence out_0 = 1/c_0, out_n = -(sum_{k=1..n} c_k out_{n-k}) / c_0.
        It runs on the numerators N_k = den * c_k: out_n = den * u_n / N_0^(n+1)
        with the integers u_0 = 1, u_n = -sum_{k=1..n} N_k u_{n-k} N_0^(k-1).
        Raises ValueError on y-dependent input or when c_0 == 0.
        """
        if any(any(R) for _n, R in self.nums):
            raise ValueError("inverse needs a pure q-series: every y-exponent must be 0")
        zero = (0,) * self.nvars
        n0 = self.nums.get((0, zero), 0)
        if n0 == 0:
            raise ValueError("not invertible: the q^0 coefficient is 0")
        qmax = self.qmax
        tail = [(n, c) for (n, _R), c in self.nums.items() if n > 0]
        powers = [n0 ** k for k in range(qmax + 2)]
        u = [1]
        for n in range(1, qmax + 1):
            u.append(-sum(c * u[n - k] * powers[k - 1] for k, c in tail if k <= n))
        # over the common denominator N_0^(qmax+1), made positive
        sign = 1 if powers[qmax + 1] > 0 else -1
        nums = {(n, zero): sign * self.den * un * powers[qmax - n]
                for n, un in enumerate(u) if un}
        return _build(self.nvars, qmax, nums, sign * powers[qmax + 1])

    # ------------------------------------------------------------------
    # substitutions and reshaping

    def truncate(self, qmax: int) -> "LaurentSeries":
        if qmax >= self.qmax:
            if qmax == self.qmax:
                return self
            raise ValueError("cannot extend a truncated series")
        return _build(self.nvars, qmax, self._kept(qmax), self.den)

    def _sum_by_key(self, nvars: int, key) -> "LaurentSeries":
        """The series with each term (n, R) moved to key(n, R), like terms added."""
        out: dict = {}
        for (n, R), v in self.nums.items():
            k = key(n, R)
            out[k] = out.get(k, 0) + v
        return _build(nvars, self.qmax, {k: v for k, v in out.items() if v}, self.den)

    def diagonal(self) -> "LaurentSeries":
        """Identify all y-variables: returns a 1-variable series with R = sum R_i."""
        if self.nvars == 0:
            raise ValueError("no variables to identify")
        return self._sum_by_key(1, lambda n, R: (n, (sum(R),)))

    def embed(self, nvars: int, slot: int) -> "LaurentSeries":
        """View a 1-variable series inside an nvars-variable ring, y -> y_slot."""
        if self.nvars != 1:
            raise ValueError("embed expects a 1-variable series")
        if not 0 <= slot < nvars:
            raise ValueError("slot out of range")
        before, after = (0,) * slot, (0,) * (nvars - slot - 1)
        return _build(nvars, self.qmax, {(n, before + R + after): v
                                         for (n, R), v in self.nums.items()}, self.den)

    def collapse_y(self) -> "LaurentSeries":
        """Set every y_i = 1, leaving a pure q-series (nvars = 0)."""
        return self._sum_by_key(0, lambda n, _R: (n, ()))

    def as_integral(self) -> "LaurentSeries":
        """Return self; raises if any coefficient is fractional."""
        if self.den != 1:
            bad = [(k, _fraction(v, self.den)) for k, v in sorted(self.nums.items())
                   if v % self.den][:3]
            raise ValueError(f"non-integral coefficients, e.g. {bad}")
        return self

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        den = self.den
        return {
            "nvars": self.nvars,
            "qmax": self.qmax,
            "integral": den == 1,
            "terms": [[n, list(R), str(v) if den == 1 else _ratio_str(v, den)]
                      for (n, R), v in sorted(self.nums.items())],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "LaurentSeries":
        require_keys(obj, "nvars", "qmax", "terms")
        try:
            nvars = json_int("nvars", obj["nvars"])
            qmax = json_int("qmax", obj["qmax"])
            coeffs = {}
            for n, R, c in obj["terms"]:
                key = (json_int("term q-power", n), tuple(json_int("term y-exponent", r) for r in R))
                if key in coeffs:
                    raise ValueError(f"duplicate term {key}")
                coeffs[key] = coeff_from_str(c)
        except TypeError as exc:  # a wrong JSON type where a number or list belongs
            raise ValueError(f"malformed series: {exc}") from None
        s = cls(nvars, qmax, coeffs)
        if obj.get("integral"):
            s = s.as_integral()
        return s
