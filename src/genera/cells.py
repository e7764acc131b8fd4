"""Homotopy of two-cell module complexes over a graded coefficient table.

A table is a finite window of finitely generated abelian groups (one per
degree, each a sum of cyclics; order 0 encodes Z) together with a partial
bilinear action recorded on pairs of generators.  A complex is a bottom
cell plus a top cell attached by a class named in the table.  For the
complex S^b u_alpha S^t the long exact sequence gives

    pi_d  =  extension of  ker(.alpha: pi_{d-t} -> pi_{d-1-b})
             by            coker(.alpha: pi_{d+1-t} -> pi_{d-b})

and both ends are computed exactly; the extension itself is reported, not
resolved, unless one end vanishes.  Attaching-order arithmetic (order of an
element, order of its image in a cofiber) reduces to integer Smith form
over the same presentations.

Bundled data files ship the stable stems in the range 0..7, the connective
tmf pattern in 0..8 and the two-cell complexes tmf_mod_nu, tmf_mod_eta,
tjf_2 and tejf_2.  GENERA_DATA_DIR overrides the bundled directory.
"""

from __future__ import annotations

import json
import os
from math import gcd, lcm, prod
from types import MappingProxyType

from genera import _intlin
from genera._data import resolve_data
from genera.values import INF, Record, json_int, unique_keys, value_str


class TableError(ValueError):
    """Malformed or inconsistent table or complex data."""


class WindowError(TableError):
    """A degree outside the table window was needed and is not inferable."""


class ProductError(TableError):
    """A product of generators is not declared and its target is nontrivial."""


class Gen(Record):
    __slots__ = ("name", "degree", "index", "order")  # order 0 encodes Z


class Element(Record):
    """Coefficient vector over the generators of a single degree."""
    __slots__ = ("degree", "vector")


class GradedTable(Record):
    # action maps (gen name, gen name) -> Element and by_name maps names to
    # Gen, both read-only; a table is equal and hashed by identity
    __slots__ = ("name", "lo", "hi", "connective", "groups", "action", "by_name")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def gens(self, degree: int) -> tuple[Gen, ...]:
        if self.lo <= degree <= self.hi:
            return self.groups[degree - self.lo]
        if degree < self.lo and self.connective:
            return ()
        raise WindowError(
            f"degree {degree} outside window [{self.lo}, {self.hi}] of table {self.name}"
        )

    def gen(self, name: str) -> Gen:
        g = self.by_name.get(name)
        if g is None:
            raise TableError(f"table {self.name} has no generator {name!r}")
        return g

    def norm(self, degree: int, vector) -> Element:
        # reduce each component mod its cyclic order; Z components pass through
        gs = self.gens(degree)
        if len(vector) != len(gs):
            raise TableError(
                f"vector length {len(vector)} != {len(gs)} generators in degree {degree}"
            )
        return Element(
            degree,
            tuple(v % g.order if g.order else v for v, g in zip(vector, gs)),
        )

    def unit(self, name: str) -> Element:
        g = self.gen(name)
        vec = [0] * len(self.gens(g.degree))
        vec[g.index] = 1
        return Element(g.degree, tuple(vec))

    def element(self, spec) -> Element:
        """Build a single-degree element from a spec: a generator name or a
        list of (mult, name) pairs, all in the degree of the first.

        >>> t = table_load("pi_tmf")
        >>> t.element([(5, "nu"), (21, "nu")])
        Element(degree=3, vector=(2,))
        """
        terms = _terms(spec)
        return _element(self, self.gen(terms[0][1]).degree, terms, "element spec")


def _terms(spec) -> list:
    # a generator name, or a non-empty list of (mult, name) pairs, mult an int
    if isinstance(spec, str):
        return [(1, spec)]
    out = []
    for m, name in spec:
        if type(m) is not int:
            raise TableError(f"term ({m!r}, {name!r}) needs an integer multiplier")
        out.append((m, name))
    if not out:
        raise TableError("empty element spec")
    return out


def _element(table: GradedTable, degree: int, terms, what: str) -> Element:
    """The sum of mult * gen over (mult, name) terms, each in `degree`,
    reduced; `what` names the element in the error for a stray term."""
    vec = [0] * len(table.gens(degree))
    for m, name in terms:
        g = table.gen(name)
        if g.degree != degree:
            raise TableError(f"{what} has {name} in degree {g.degree}, expected {degree}")
        vec[g.index] += m
    return table.norm(degree, vec)


def _parse_result(raw) -> list:
    # action result: the JSON integer 0, "gen", {"gen", "mult"}, or a list of
    # the last two forms
    if raw == 0 and type(raw) is int:
        return []
    out = []
    for item in raw if isinstance(raw, list) else [raw]:
        if isinstance(item, str):
            out.append((1, item))
        elif (isinstance(item, dict) and isinstance(item.get("gen"), str)
              and type(item.get("mult")) is int):
            out.append((item["mult"], item["gen"]))
        else:
            raise TableError(f"bad action result {raw!r}: need the JSON integer 0, a "
                             "generator name or a {gen, mult} object with a JSON-integer mult")
    return out


def table_load(path: str) -> GradedTable:
    """Load and audit a coefficient table.

    The audits: window shape, unique generator names, degree additivity of
    every declared product, order compatibility (the order of either factor
    kills the product), graded commutativity where both orders of a pair are
    declared, and associativity on every triple of generators whose products
    all resolve.  Every call reads, parses and audits the file; a caller
    that needs a table for many requests loads it once and passes it on.
    """
    fpath = resolve_data(path)
    with open(fpath) as fh:
        raw = json.load(fh, object_pairs_hook=unique_keys)
    try:
        name = raw["name"]
        window = raw["window"]
        groups_raw = raw["groups"]
        action_raw = raw["action"]
    except (KeyError, TypeError) as exc:
        raise TableError(f"malformed table file {fpath}: {exc}") from None
    if not isinstance(window, list) or len(window) != 2 or any(type(w) is not int for w in window):
        raise TableError(f"table {name}: window must be two JSON integers, got {window!r}")
    lo, hi = window
    connective = raw.get("connective", False)
    if type(connective) is not bool:
        raise TableError(f"table {name}: connective must be a JSON boolean, got {connective!r}")
    if lo > hi:
        raise TableError(f"empty window [{lo}, {hi}]")

    if not isinstance(groups_raw, dict) or not isinstance(action_raw, list):
        raise TableError(f"table {name}: groups must be an object and action a list")

    groups = []
    by_name = {}
    for d in range(lo, hi + 1):
        key = str(d)
        if key not in groups_raw:
            raise TableError(f"table {name}: degree {d} missing from groups")
        entries = groups_raw[key]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise TableError(f"table {name}: degree {d} must list {{gen, order}} objects")
        gs = []
        for idx, entry in enumerate(entries):
            gname, order = entry.get("gen"), entry.get("order")
            if not isinstance(gname, str) or type(order) is not int or order < 0:
                raise TableError(f"table {name}: bad generator {entry!r}")
            if gname in by_name:
                raise TableError(f"duplicate generator name {gname!r}")
            by_name[gname] = Gen(gname, d, idx, order)
            gs.append(by_name[gname])
        groups.append(tuple(gs))
    extra = set(groups_raw) - {str(d) for d in range(lo, hi + 1)}
    if extra:
        raise TableError(f"table {name}: degrees {sorted(extra)} outside window")

    action: dict = {}
    table = GradedTable(name, lo, hi, connective, tuple(groups), MappingProxyType(action),
                        MappingProxyType(by_name))

    for entry in action_raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise TableError(f"bad action entry {entry!r}")
        gname, hname, res = entry
        target = table.gen(gname).degree + table.gen(hname).degree
        # an out-of-window target raises WindowError
        got = _element(table, target, _parse_result(res), f"product {gname}*{hname}")
        if (gname, hname) in action:
            raise TableError(f"duplicate action entry {gname}*{hname}")
        action[(gname, hname)] = got

    _audit(table)
    return table


def _swapped(table: GradedTable, g: Gen, h: Gen) -> Element:
    # g*h from the declared h*g by graded commutativity
    sign = -1 if (g.degree * h.degree) % 2 else 1
    return table.norm(g.degree + h.degree,
                      [sign * v for v in table.action[(h.name, g.name)].vector])


def _pair_product(table: GradedTable, g: Gen, h: Gen) -> Element:
    got = table.action.get((g.name, h.name))
    if got is not None:
        return got
    if (h.name, g.name) in table.action:
        return _swapped(table, g, h)
    target = g.degree + h.degree
    if not table.gens(target):
        return Element(target, ())
    raise ProductError(f"product {g.name}*{h.name} not declared in table {table.name}")


def mult(table: GradedTable, a: Element, b: Element) -> Element:
    """Bilinear product of two elements; raises if a needed pair is missing."""
    target = a.degree + b.degree
    acc = [0] * len(table.gens(target))
    ga = table.gens(a.degree)
    gb = table.gens(b.degree)
    for i, ai in enumerate(a.vector):
        if not ai:
            continue
        for j, bj in enumerate(b.vector):
            if not bj:
                continue
            p = _pair_product(table, ga[i], gb[j])
            for idx, v in enumerate(p.vector):
                acc[idx] += ai * bj * v
    return table.norm(target, acc)


def _audit(table: GradedTable) -> None:
    for (gname, hname), got in table.action.items():
        g, h = table.gen(gname), table.gen(hname)
        tgt = table.gens(g.degree + h.degree)
        for o in (g.order, h.order):
            if o == 0:
                continue
            for r, v in zip(tgt, got.vector):
                bad = (o * v) % r.order != 0 if r.order else o * v != 0
                if bad:
                    raise TableError(
                        f"order({gname if o == g.order else hname}) = {o} does not kill "
                        f"{gname}*{hname} in table {table.name}"
                    )
    for (gname, hname), got in table.action.items():
        if (gname != hname and (hname, gname) in table.action
                and got != _swapped(table, table.gen(gname), table.gen(hname))):
            raise TableError(f"{gname}*{hname} breaks graded commutativity")
    # associativity over memoized products: a triple is skipped when any
    # product it needs raises WindowError or ProductError
    products: dict = {}

    def product(a: Element, b: Element) -> Element | None:
        key = (a.degree, a.vector, b.degree, b.vector)
        if key not in products:
            try:
                products[key] = mult(table, a, b)
            except (WindowError, ProductError):
                products[key] = None
        return products[key]

    names = sorted(table.by_name)
    units = {x: table.unit(x) for x in names}
    for x in names:
        for y in names:
            xy = product(units[x], units[y])
            if xy is None:
                continue
            for z in names:
                lhs = product(xy, units[z])
                yz = product(units[y], units[z])
                rhs = None if yz is None else product(units[x], yz)
                if lhs is None or rhs is None:
                    continue
                if lhs != rhs:
                    raise TableError(
                        f"associativity fails on ({x}, {y}, {z}) in table {table.name}"
                    )


def element_order(table: GradedTable, spec):
    """Least n >= 1 killing the element; INF when a Z component is hit.

    The spec may mix degrees; a list like [(1, "eta"), (2, "nu")] is read as
    an element of the direct sum and the order is the lcm over degrees.
    """
    by_degree: dict = {}
    for term in _terms(spec):
        by_degree.setdefault(table.gen(term[1]).degree, []).append(term)
    result = 1
    for degree, terms in by_degree.items():
        for g, v in zip(table.gens(degree), _element(table, degree, terms, "element spec").vector):
            if v and not g.order:
                return INF
            if v:
                result = lcm(result, g.order // gcd(g.order, v))
    return result


class CellComplex(Record):
    """A bottom cell plus one top cell attached by a class of the table."""
    # attach: (mult, gen_name) pairs summing to the attaching class
    __slots__ = ("name", "bottom", "top", "attach")


def complex_load(path: str) -> CellComplex:
    """Load {"cells": [{"deg": b}, {"deg": t, "attach": A}]}, t > b.

    A is a {"gen", "mult"} object or a non-empty list of them ("to" may be 0).
    """
    fpath = resolve_data(path)
    with open(fpath) as fh:
        raw = json.load(fh, object_pairs_hook=unique_keys)
    cells_raw = raw.get("cells") if isinstance(raw, dict) else None
    if not isinstance(cells_raw, list) or not all(isinstance(c, dict) for c in cells_raw):
        raise TableError(f"complex file {fpath} needs a list of cell objects under 'cells'")
    if len(cells_raw) != 2:
        raise TableError(f"complex file {fpath} has {len(cells_raw)} cells; expected 2")
    cb, ct = cells_raw
    if cb.get("attach") is not None:
        raise TableError("bottom cell cannot carry an attaching class")
    comps = ct.get("attach")
    comps = [comps] if isinstance(comps, dict) else comps
    if not comps or not isinstance(comps, list) or not all(isinstance(c, dict) for c in comps):
        raise TableError("top cell needs an attaching class: {gen, mult} objects")
    try:
        bottom, top = json_int("deg", cb["deg"]), json_int("deg", ct["deg"])
        to = {json_int("to", c.get("to", 0)) for c in comps}
        attach = tuple((json_int("mult", c["mult"]), str(c["gen"])) for c in comps)
    except (KeyError, ValueError) as exc:
        raise TableError(f"malformed complex file {fpath}: {exc!r}") from None
    if to != {0}:
        raise TableError(f"top cell attaches to cell {max(to)}; only the bottom cell 0 exists")
    if top <= bottom:
        raise TableError(f"top cell degree {top} must exceed bottom cell degree {bottom}")
    name = raw.get("name", os.path.splitext(os.path.basename(fpath))[0])
    if not isinstance(name, str):
        raise TableError(f"complex file {fpath}: name must be a JSON string, got {name!r}")
    return CellComplex(name, bottom, top, attach)


def _attaching_class(cplx: CellComplex, table: GradedTable) -> Element:
    return _element(table, cplx.top - 1 - cplx.bottom, cplx.attach, "attaching class")


class AbGroup(Record):
    __slots__ = ("free_rank", "torsion")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def order(self):
        return INF if self.free_rank else prod(self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _boundary_columns(table: GradedTable, source: int, alpha: Element) -> list:
    """Images of the degree `source` generators under right multiplication by alpha."""
    return [list(mult(table, table.unit(g.name), alpha).vector) for g in table.gens(source)]


def _relation_columns(gens: tuple) -> list:
    # one column order * e_g per finite cyclic summand
    return [[g.order if i == g.index else 0 for i in range(len(gens))] for g in gens if g.order]


def _cokernel_columns(table: GradedTable, source: int, alpha: Element, target: int) -> list:
    """Columns presenting coker(.alpha: pi_source -> pi_target): the relations
    of the target group, then the boundary images."""
    return _relation_columns(table.gens(target)) + _boundary_columns(table, source, alpha)


def _cokernel(table: GradedTable, source: int, alpha: Element, target: int) -> AbGroup:
    n = len(table.gens(target))
    if not n:
        return AbGroup(0, ())
    cols = _cokernel_columns(table, source, alpha, target)
    free, torsion = _intlin.quotient_presentation(n, cols)
    return AbGroup(free, tuple(torsion))


def _kernel(table: GradedTable, source: int, alpha: Element, target: int) -> AbGroup:
    src = table.gens(source)
    n = len(src)
    if n == 0:
        return AbGroup(0, ())
    tgt = table.gens(target)
    cols = _boundary_columns(table, source, alpha) + _relation_columns(tgt)
    lattice = [v[:n] for v in _intlin.kernel_basis(cols)]
    free, torsion = _intlin.lattice_quotient(lattice, _relation_columns(src))
    return AbGroup(free, tuple(torsion))


class CofiberGroup(Record):
    """One homotopy group of a two-cell complex, as the two ends of the LES."""
    # coker: image of the bottom cell; ker: detected on the top cell
    __slots__ = ("complex_name", "degree", "coker", "ker")

    @property
    def ambiguous(self) -> bool:
        return not self.coker.is_trivial and not self.ker.is_trivial

    @property
    def group(self):
        if self.ambiguous:
            return None
        return self.ker if self.coker.is_trivial else self.coker

    @property
    def order(self):
        a = self.coker.order
        b = self.ker.order
        if a is INF or b is INF:
            return INF
        return a * b

    def describe(self) -> str:
        if not self.ambiguous:
            return str(self.group)
        return f"extension of {self.ker} by {self.coker}, order {value_str(self.order)}"

    def to_obj(self) -> dict:
        return {
            "complex": self.complex_name,
            "degree": str(self.degree),
            "coker": str(self.coker),
            "ker": str(self.ker),
            "ambiguous": self.ambiguous,
            "group": self.describe(),
            "order": value_str(self.order),
        }


def cofiber_homotopy(cplx: CellComplex, table: GradedTable, degree: int) -> CofiberGroup:
    """The degree `degree` homotopy group of a two-cell complex over the table.

    Reports the cokernel end (incoming boundary) and the kernel end (outgoing
    boundary) of the long exact sequence; when both are nonzero the extension
    is left unresolved and `group` is None.
    """
    b, t, alpha = cplx.bottom, cplx.top, _attaching_class(cplx, table)
    coker = _cokernel(table, degree + 1 - t, alpha, degree - b)
    ker = _kernel(table, degree - t, alpha, degree - 1 - b)
    return CofiberGroup(cplx.name, degree, coker, ker)


def image_order_in_cofiber(element: Element, cplx: CellComplex, table: GradedTable):
    """Order of the image of a bottom-cell class in the cofiber.

    The bottom inclusion sends pi_degree of the table onto the cokernel end
    of the LES, so this is the order in that quotient; INF when infinite.
    """
    alpha = _attaching_class(cplx, table)
    target = element.degree
    source = target + cplx.bottom + 1 - cplx.top
    if not table.gens(target):
        return 1
    return _intlin.order_in_quotient(_cokernel_columns(table, source, alpha, target),
                                     list(element.vector))


def dsu_easy(k: int, table: GradedTable, cofib: CellComplex):
    """Lower bound for the strict-SU divisibility constant via cell complexes.

    table is pi_tmf and cofib the eta cofiber tmf_mod_eta, loaded once by the
    caller for every k.  k = 1 is the order of the unit (infinite), k = 2 the
    order of nu.  Even k = 2k' pushes k'nu into the eta cofiber; odd
    k = 2k'+3 takes the order of (eta, c nu) with c = 2k' when 4 | k' and
    c = k' otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return element_order(table, "one")
    if k == 2:
        return element_order(table, "nu")
    if k % 2 == 0:
        return image_order_in_cofiber(table.element([(k // 2, "nu")]), cofib, table)
    kp = (k - 3) // 2
    c = 2 * kp if kp % 4 == 0 else kp
    return element_order(table, [(1, "eta"), (c, "nu")])


def parse_element_spec(text: str) -> list:
    """Parse "eta,8*nu" style element specs into (mult, gen) pairs."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in element spec {text!r}")
        if "*" in chunk:
            m, _, g = chunk.partition("*")
            out.append((int(m), g.strip()))
        else:
            out.append((1, chunk))
    return out
