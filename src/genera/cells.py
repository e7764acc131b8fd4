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
from dataclasses import dataclass
from math import gcd, lcm

from genera import _intlin
from genera._data import resolve_data
from genera.values import INF, value_str


class TableError(ValueError):
    """Malformed or inconsistent table or complex data."""


class WindowError(TableError):
    """A degree outside the table window was needed and is not inferable."""


class ProductError(TableError):
    """A product of generators is not declared and its target is nontrivial."""


@dataclass(frozen=True)
class Gen:
    name: str
    degree: int
    index: int
    order: int  # 0 encodes Z


@dataclass(frozen=True)
class Element:
    """Coefficient vector over the generators of a single degree."""

    degree: int
    vector: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GradedTable:
    name: str
    lo: int
    hi: int
    connective: bool
    groups: tuple[tuple[Gen, ...], ...]
    action: dict

    def gens(self, degree: int) -> tuple[Gen, ...]:
        if self.lo <= degree <= self.hi:
            return self.groups[degree - self.lo]
        if degree < self.lo and self.connective:
            return ()
        raise WindowError(
            f"degree {degree} outside window [{self.lo}, {self.hi}] of table {self.name}"
        )

    def gen(self, name: str) -> Gen:
        g = self._by_name.get(name)
        if g is None:
            raise TableError(f"table {self.name} has no generator {name!r}")
        return g

    @property
    def _by_name(self) -> dict:
        d = self.__dict__.get("_by_name_cache")
        if d is None:
            d = {g.name: g for gs in self.groups for g in gs}
            object.__setattr__(self, "_by_name_cache", d)
        return d

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
        """Build a single-degree element from a spec.

        Accepts an Element, a generator name, a (mult, name) pair, or a list
        of such pairs all in one degree.
        """
        terms = _terms(self, spec)
        degrees = {g.degree for _m, g in terms}
        if len(degrees) != 1:
            raise TableError(f"element spans degrees {sorted(degrees)}; expected one")
        (degree,) = degrees
        vec = [0] * len(self.gens(degree))
        for m, g in terms:
            vec[g.index] += m
        return self.norm(degree, vec)


def _terms(table: GradedTable, spec) -> list:
    if isinstance(spec, Element):
        gs = table.gens(spec.degree)
        if len(gs) != len(spec.vector):
            raise TableError("element vector does not match table degree")
        return [(m, g) for m, g in zip(spec.vector, gs)]
    if isinstance(spec, str):
        return [(1, table.gen(spec))]
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], str):
        return [(int(spec[0]), table.gen(spec[1]))]
    out = []
    for item in spec:
        if isinstance(item, str):
            out.append((1, table.gen(item)))
        else:
            m, name = item
            out.append((int(m), table.gen(name)))
    if not out:
        raise TableError("empty element spec")
    return out


def _parse_result(raw) -> list:
    # action result: 0, "gen", {"gen", "mult"}, or a list of the last two forms
    if raw == 0:
        return []
    out = []
    for item in raw if isinstance(raw, list) else [raw]:
        if isinstance(item, str):
            out.append((1, item))
        elif (isinstance(item, dict) and isinstance(item.get("gen"), str)
              and type(item.get("mult")) is int):
            out.append((item["mult"], item["gen"]))
        else:
            raise TableError(f"bad action result {raw!r}: need a generator name or "
                             "a {gen, mult} object with a JSON-integer mult")
    return out


def table_load(path: str) -> GradedTable:
    """Load and audit a coefficient table.

    The audits: window shape, unique generator names, degree additivity of
    every declared product, order compatibility (the order of either factor
    kills the product), graded commutativity where both orders of a pair are
    declared, and associativity on every triple of generators whose products
    all resolve.
    """
    fpath = resolve_data(path)
    with open(fpath) as fh:
        raw = json.load(fh)
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
    connective = bool(raw.get("connective", False))
    if lo > hi:
        raise TableError(f"empty window [{lo}, {hi}]")

    if not isinstance(groups_raw, dict) or not isinstance(action_raw, list):
        raise TableError(f"table {name}: groups must be an object and action a list")

    groups = []
    seen = set()
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
            if gname in seen:
                raise TableError(f"duplicate generator name {gname!r}")
            seen.add(gname)
            gs.append(Gen(gname, d, idx, order))
        groups.append(tuple(gs))
    extra = set(groups_raw) - {str(d) for d in range(lo, hi + 1)}
    if extra:
        raise TableError(f"table {name}: degrees {sorted(extra)} outside window")

    table = GradedTable(name, lo, hi, connective, tuple(groups), {})

    for entry in action_raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise TableError(f"bad action entry {entry!r}")
        gname, hname, res = entry
        g = table.gen(gname)
        h = table.gen(hname)
        target = g.degree + h.degree
        tgt = table.gens(target)  # raises WindowError for out-of-window products
        vec = [0] * len(tgt)
        for m, rname in _parse_result(res):
            r = table.gen(rname)
            if r.degree != target:
                raise TableError(
                    f"product {gname}*{hname} declared in degree {r.degree}, expected {target}"
                )
            vec[r.index] += m
        if (gname, hname) in table.action:
            raise TableError(f"duplicate action entry {gname}*{hname}")
        table.action[(gname, hname)] = table.norm(target, vec)

    _audit(table)
    return table


def _pair_product(table: GradedTable, g: Gen, h: Gen) -> Element:
    target = g.degree + h.degree
    tgt = table.gens(target)
    got = table.action.get((g.name, h.name))
    if got is not None:
        return got
    got = table.action.get((h.name, g.name))
    if got is not None:
        sign = -1 if (g.degree * h.degree) % 2 else 1
        return table.norm(target, [sign * v for v in got.vector])
    if not tgt:
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
    for (gname, hname), prod in table.action.items():
        g, h = table.gen(gname), table.gen(hname)
        tgt = table.gens(g.degree + h.degree)
        for o in (g.order, h.order):
            if o == 0:
                continue
            for r, v in zip(tgt, prod.vector):
                bad = (o * v) % r.order != 0 if r.order else o * v != 0
                if bad:
                    raise TableError(
                        f"order({gname if o == g.order else hname}) = {o} does not kill "
                        f"{gname}*{hname} in table {table.name}"
                    )
    for (gname, hname) in list(table.action):
        if (hname, gname) not in table.action or gname == hname:
            continue
        g, h = table.gen(gname), table.gen(hname)
        lhs = table.action[(gname, hname)]
        sign = -1 if (g.degree * h.degree) % 2 else 1
        rhs = table.norm(lhs.degree, [sign * v for v in table.action[(hname, gname)].vector])
        if lhs != rhs:
            raise TableError(f"{gname}*{hname} breaks graded commutativity")
    names = sorted(table._by_name)
    for x in names:
        for y in names:
            for z in names:
                try:
                    lhs = mult(table, mult(table, table.unit(x), table.unit(y)), table.unit(z))
                    rhs = mult(table, table.unit(x), mult(table, table.unit(y), table.unit(z)))
                except (WindowError, ProductError):
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
    for m, g in _terms(table, spec):
        vec = by_degree.setdefault(g.degree, [0] * len(table.gens(g.degree)))
        vec[g.index] += m
    result = 1
    for degree, vec in by_degree.items():
        for g, v in zip(table.gens(degree), vec):
            if g.order == 0:
                if v != 0:
                    return INF
                continue
            v %= g.order
            if v:
                result = lcm(result, g.order // gcd(g.order, v))
    return result


@dataclass(frozen=True)
class CellComplex:
    """A bottom cell plus one top cell attached by a class of the table."""

    name: str
    bottom: int
    top: int
    attach: tuple  # (mult, gen_name) pairs summing to the attaching class


def complex_load(path: str) -> CellComplex:
    """Load {"cells": [{"deg": b}, {"deg": t, "attach": A}]}, t > b.

    A is a {"gen", "mult"} object or a non-empty list of them ("to" may be 0).
    """
    fpath = resolve_data(path)
    with open(fpath) as fh:
        raw = json.load(fh)
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
        bottom, top = int(cb["deg"]), int(ct["deg"])
        to = {int(c.get("to", 0)) for c in comps}
        attach = tuple((int(c["mult"]), str(c["gen"])) for c in comps)
    except (KeyError, TypeError, ValueError) as exc:
        raise TableError(f"malformed complex file {fpath}: {exc!r}") from None
    if to != {0}:
        raise TableError(f"top cell attaches to cell {max(to)}; only the bottom cell 0 exists")
    if top <= bottom:
        raise TableError(f"top cell degree {top} must exceed bottom cell degree {bottom}")
    return CellComplex(raw.get("name", os.path.splitext(os.path.basename(fpath))[0]),
                       bottom, top, attach)


def _attaching_class(cplx: CellComplex, table: GradedTable) -> Element:
    adeg = cplx.top - 1 - cplx.bottom
    vec = [0] * len(table.gens(adeg))
    for m, gname in cplx.attach:
        g = table.gen(gname)
        if g.degree != adeg:
            raise TableError(
                f"attaching class {gname} has degree {g.degree}, "
                f"cell degrees demand {adeg}"
            )
        vec[g.index] += m
    return table.norm(adeg, vec)


@dataclass(frozen=True)
class AbGroup:
    free_rank: int
    torsion: tuple

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def order(self):
        if self.free_rank:
            return INF
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _boundary_columns(table: GradedTable, source: int, alpha: Element) -> tuple:
    """Images of the degree `source` generators under right multiplication by alpha."""
    cols = []
    for g in table.gens(source):
        cols.append(list(mult(table, table.unit(g.name), alpha).vector))
    return cols


def _relation_columns(gens: tuple) -> list:
    n = len(gens)
    cols = []
    for g in gens:
        if g.order:
            col = [0] * n
            col[g.index] = g.order
            cols.append(col)
    return cols


def _cokernel(table: GradedTable, source: int, alpha: Element, target: int) -> AbGroup:
    tgt = table.gens(target)
    if not tgt:
        return AbGroup(0, ())
    cols = _relation_columns(tgt) + _boundary_columns(table, source, alpha)
    free, torsion = _intlin.quotient_presentation(len(tgt), cols)
    return AbGroup(free, tuple(torsion))


def _kernel(table: GradedTable, source: int, alpha: Element, target: int) -> AbGroup:
    src = table.gens(source)
    n = len(src)
    if n == 0:
        return AbGroup(0, ())
    tgt = table.gens(target)
    m = len(tgt)
    if m == 0:
        lattice = _intlin.columns(_intlin.identity(n))
    else:
        cols = _boundary_columns(table, source, alpha) + _relation_columns(tgt)
        stacked = _intlin.from_columns(cols, m)
        kern = _intlin.kernel_basis(stacked)
        lattice = [v[:n] for v in kern]
    free, torsion = _intlin.lattice_quotient(n, lattice, _relation_columns(src))
    return AbGroup(free, tuple(torsion))


@dataclass(frozen=True)
class CofiberGroup:
    """One homotopy group of a two-cell complex, as the two ends of the LES."""

    complex_name: str
    degree: int
    coker: AbGroup  # image of the bottom cell
    ker: AbGroup  # detected on the top cell

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


def image_order_in_cofiber(element, cplx: CellComplex, table: GradedTable):
    """Order of the image of a bottom-cell class in the cofiber.

    The bottom inclusion sends pi_degree of the table onto the cokernel end
    of the LES, so this is the order in that quotient; INF when infinite.
    """
    e = element if isinstance(element, Element) else table.element(element)
    alpha = _attaching_class(cplx, table)
    target = e.degree
    source = target + cplx.bottom + 1 - cplx.top
    tgt = table.gens(target)
    if not tgt:
        return 1
    cols = _relation_columns(tgt) + _boundary_columns(table, source, alpha)
    got = _intlin.order_in_quotient(len(tgt), cols, list(e.vector))
    return INF if got is None else got


def dsu_easy(k: int):
    """Lower bound for the strict-SU divisibility constant via cell complexes.

    k = 1 is the order of the unit (infinite), k = 2 the order of nu.  Even
    k = 2k' pushes k'nu into the eta cofiber; odd k = 2k'+3 takes the order
    of (eta, c nu) with c = 2k' when 4 | k' and c = k' otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = table_load("pi_tmf")
    if k == 1:
        return element_order(table, "one")
    if k == 2:
        return element_order(table, "nu")
    if k % 2 == 0:
        kp = k // 2
        cofib = complex_load("tmf_mod_eta")
        return image_order_in_cofiber(table.element([(kp, "nu")]), cofib, table)
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
