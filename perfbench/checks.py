"""Independent checks of `genera` CLI outputs.

Nothing here imports `genera`.  Every expected value comes from a closed
form, a product formula evaluated with exact integer arithmetic, a
structural invariant, or the bundled data files read as plain JSON, so a
wrong program output is never confirmed by the code that produced it.

Series are dicts {(n, R): coeff} where R is a tuple of DOUBLED y-exponents,
the same key convention as the CLI's JSON ("terms": [[n, [R...], "c"], ...]).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# ----------------------------------------------------------------------
# series helpers


def parse_coeff(text):
    return Fraction(text) if "/" in text else int(text)


def parse_series(obj) -> dict:
    out = {}
    for n, R, c in obj["terms"]:
        out[(int(n), tuple(int(r) for r in R))] = parse_coeff(c)
    return out


def series_obj(terms: dict, qmax: int, weight2: int, index2: int) -> dict:
    """JSON object in the CLI's `jf gen` layout, one variable, integer coefficients."""
    return {
        "weight2": weight2,
        "index2": index2,
        "nvars": 1,
        "qmax": qmax,
        "integral": True,
        "terms": [[n, list(R), str(c)] for (n, R), c in sorted(terms.items()) if c],
    }


def _layers(qmax: int, q0: dict) -> list:
    s = [dict() for _ in range(qmax + 1)]
    s[0] = dict(q0)
    return s


def _times(s: list, m: int, t: int, c: int) -> None:
    """s *= (1 + c q^m y^(t/2)), in place, one y-variable."""
    for n in range(len(s) - 1, m - 1, -1):
        dst = s[n]
        for R, v in s[n - m].items():
            w = dst.get(R + t, 0) + c * v
            if w:
                dst[R + t] = w
            else:
                dst.pop(R + t, None)


def _over(s: list, m: int, t: int, c: int) -> None:
    """s /= (1 + c q^m y^(t/2)), in place: u[n] = s[n] - c y^(t/2) u[n-m]."""
    for n in range(m, len(s)):
        dst = s[n]
        for R, v in s[n - m].items():
            w = dst.get(R + t, 0) - c * v
            if w:
                dst[R + t] = w
            else:
                dst.pop(R + t, None)


def _flat(s: list) -> dict:
    return {(n, (R,)): c for n, layer in enumerate(s) for R, c in layer.items() if c}


def a_form(qmax: int) -> dict:
    """(y^1/2 - y^-1/2) prod_m (1 - q^m y)(1 - q^m / y) / (1 - q^m)^2."""
    s = _layers(qmax, {1: 1, -1: -1})
    for m in range(1, qmax + 1):
        _times(s, m, 2, -1)
        _times(s, m, -2, -1)
        _over(s, m, 0, -1)
        _over(s, m, 0, -1)
    return _flat(s)


def phi032_form(qmax: int) -> dict:
    """a(2z)/a(z) = (y^1/2 + y^-1/2) prod_m (1-q^m y^2)(1-q^m y^-2)/((1-q^m y)(1-q^m y^-1))."""
    s = _layers(qmax, {1: 1, -1: 1})
    for m in range(1, qmax + 1):
        _times(s, m, 4, -1)
        _times(s, m, -4, -1)
        _over(s, m, 2, -1)
        _over(s, m, -2, -1)
    return _flat(s)


def two_phi01_form(qmax: int) -> dict:
    """8 * sum_i (theta_i(z)/theta_i(0))^2 from the Jacobi triple products.

    theta_2 lives on the q-grid; theta_3 and theta_4 on the q^(1/2)-grid,
    where their odd half-powers cancel in the sum.
    """
    s2 = _layers(qmax, {2: 2, 0: 4, -2: 2})  # 8 * ((y^1/2 + y^-1/2)/2)^2
    for m in range(1, qmax + 1):
        for _ in range(2):
            _times(s2, m, 2, 1)
            _times(s2, m, -2, 1)
            _over(s2, m, 0, 1)
            _over(s2, m, 0, 1)
    half = 2 * qmax
    total = [dict(layer) for layer in s2]
    for sign in (1, -1):  # theta_3, then theta_4 = theta_3 at q^(1/2) -> -q^(1/2)
        s = _layers(half, {0: 8})
        for k in range(1, half + 1, 2):
            for _ in range(2):
                _times(s, k, 2, sign)
                _times(s, k, -2, sign)
                _over(s, k, 0, sign)
                _over(s, k, 0, sign)
        for e in range(0, half + 1, 2):
            dst = total[e // 2]
            for R, v in s[e].items():
                dst[R] = dst.get(R, 0) + v
    return {k: c for k, c in _flat(total).items() if c}


def mul(a: dict, b: dict, qmax: int) -> dict:
    out: dict = {}
    for (n1, R1), c1 in a.items():
        for (n2, R2), c2 in b.items():
            n = n1 + n2
            if n > qmax:
                continue
            key = (n, tuple(x + y for x, y in zip(R1, R2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items()} if c else {}


def collapse(terms: dict, keep: tuple = ()) -> dict:
    """Set every y-variable not listed in `keep` to 1."""
    out: dict = {}
    for (n, R), c in terms.items():
        key = (n, tuple(R[i] for i in keep))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# ----------------------------------------------------------------------
# the elliptic transformation law, per variable


def elliptic_law(terms: dict, qmax: int, index2: int, lam: int, var: int = 0):
    """Coefficient law c(n + lam*r + m*lam^2, r + 2m*lam) = sign * c(n, r) in one variable.

    r = R/2 and m = index2/2; sign = (-1)^(index2*lam).  Candidates are the
    stored keys plus their in-window preimages; images beyond qmax are not
    checkable and images below q^0 count as zero.  Returns
    (pairs_checked, violations) with violations as (n, R, n2, R2, expected, got).
    """
    sign = -1 if (index2 * lam) % 2 else 1

    def image(n, R, lam_):
        num = lam_ * R[var] + index2 * lam_ * lam_
        R2 = list(R)
        R2[var] += 2 * index2 * lam_
        return n + num // 2, tuple(R2)

    cands = set()
    for (n, R) in terms:
        cands.add((n, R))
        pn, pR = image(n, R, -lam)
        if 0 <= pn <= qmax:
            cands.add((pn, pR))
    checked = 0
    violations = []
    for (n, R) in sorted(cands):
        n2, R2 = image(n, R, lam)
        if n2 > qmax:
            continue
        expected = sign * terms.get((n, R), 0)
        got = terms.get((n2, R2), 0) if n2 >= 0 else 0
        checked += 1
        if got != expected:
            violations.append((n, R, n2, R2, expected, got))
    return checked, violations


# ----------------------------------------------------------------------
# closed forms for the divisibility families


def d_clas(k: int):
    if k == 1:
        return "inf"
    if k % 2 == 0:
        return 12 // gcd(k // 2, 12)
    return 24 // gcd((k - 3) // 2, 12)


_ALPHA = {1: 3, 2: 3, 5: 3, 6: 2, 7: 2, 3: 1, 4: 1, 0: 0}
_BETA = {1: 1, 2: 1, 0: 0}


def d_su(k: int):
    if k == 1:
        return "inf"
    return 2 ** _ALPHA[k % 8] * 3 ** _BETA[k % 3]


def d_su_easy(k: int):
    """Equal to d_su except at k = 2 (mod 8), k >= 10, where it is half."""
    v = d_su(k)
    if k >= 10 and k % 8 == 2:
        return v // 2
    return v


def d_sp(k: int) -> int:
    return 24 // gcd(k, 24)


def verdict(structure: str, k: int, euler: int) -> dict:
    """Expected `divis verdict` fields (constant, divides)."""
    if structure == "SU":
        if k == 1:
            return {"constant": "inf", "divides": euler == 0}
        d = d_su(k)
        return {"constant": str(d), "divides": euler % d == 0}
    if structure == "Sp":
        d = d_sp(k)
        return {"constant": str(d), "divides": euler % d == 0}
    if k % 4 == 2:
        return {"constant": "2", "divides": euler % 2 == 0}
    return {"constant": "none", "divides": True}


def nu_order(k: int) -> int:
    return 24 // gcd(k, 24)


# ----------------------------------------------------------------------
# two-cell cofibers over single-generator windows


class Unsupported(Exception):
    """The case needs more than this evaluator handles (or the program refuses it)."""


def load_table(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    lo, hi = raw["window"]
    groups = {int(d): [(e["gen"], int(e["order"])) for e in gs] for d, gs in raw["groups"].items()}
    degree = {g: d for d, gs in groups.items() for g, _o in gs}
    action = {}
    for g, h, res in raw["action"]:
        if res == 0:
            action[(g, h)] = []
        elif isinstance(res, str):
            action[(g, h)] = [(1, res)]
        elif isinstance(res, dict):
            action[(g, h)] = [(int(res["mult"]), res["gen"])]
        else:
            action[(g, h)] = [(1, r) if isinstance(r, str) else (int(r["mult"]), r["gen"]) for r in res]
    return {"lo": lo, "hi": hi, "connective": bool(raw.get("connective")),
            "groups": groups, "degree": degree, "action": action}


def load_two_cell(path: str):
    """(bottom degree, top degree, [(mult, gen)]) of a two-cell complex file."""
    with open(path) as fh:
        raw = json.load(fh)
    cells = raw["cells"]
    if len(cells) != 2:
        raise Unsupported("not a two-cell complex")
    att = cells[1]["attach"]
    att = [att] if isinstance(att, dict) else att
    return int(cells[0]["deg"]), int(cells[1]["deg"]), [(int(a["mult"]), a["gen"]) for a in att]


def _gens(table: dict, d: int) -> list:
    if table["lo"] <= d <= table["hi"]:
        return table["groups"][d]
    if d < table["lo"] and table["connective"]:
        return []
    raise Unsupported(f"degree {d} outside the table window")


def _times_alpha(table: dict, g: str, alpha: list, target: list) -> list:
    """Coefficients of g * alpha over the target generators (unreduced)."""
    idx = {name: i for i, (name, _o) in enumerate(target)}
    vec = [0] * len(target)
    for m, a in alpha:
        if (g, a) in table["action"]:
            res, sign = table["action"][(g, a)], 1
        elif (a, g) in table["action"]:
            res = table["action"][(a, g)]
            sign = -1 if (table["degree"][g] * table["degree"][a]) % 2 else 1
        elif not target:
            res, sign = [], 1
        else:
            raise Unsupported(f"product {g}*{a} not declared")
        for c, r in res:
            vec[idx[r]] += sign * m * c
    return vec


def _group_str(free: int, torsion: list) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion if t > 1)
    return " + ".join(parts) if parts else "0"


def _as_group(gens: list):
    return sum(1 for _g, o in gens if o == 0), [o for _g, o in gens if o > 1]


def _coker_ker(table, src, alpha, tgt):
    """(coker, ker) of x -> x*alpha from src to tgt, each as (free, torsion)."""
    cols = [_times_alpha(table, g, alpha, tgt) for g, _o in src]
    zero = all(v % o == 0 if o else v == 0 for col in cols for v, (_g, o) in zip(col, tgt))
    if zero:
        return _as_group(tgt), _as_group(src)
    if len(src) != 1 or len(tgt) != 1:
        raise Unsupported("nonzero map between multi-generator groups")
    s, t, m = src[0][1], tgt[0][1], cols[0][0]
    if t == 0:
        coker = (0, [abs(m)]) if s == 0 else (1, [])
        ker = (0, []) if s == 0 else (0, [s])
    else:
        coker = (0, [gcd(m, t)])
        if s == 0:
            ker = (1, [])
        else:
            ker = (0, [s // (t // gcd(m, t))])
    return coker, ker


def cofiber_group(table: dict, cplx, degree: int) -> dict:
    """Expected `cells homotopy` JSON for a two-cell complex (bottom b, top t)."""
    b, t, alpha = cplx
    adeg = t - 1 - b
    for _m, a in alpha:
        if table["degree"].get(a) != adeg:
            raise Unsupported("attaching class in the wrong degree")
    coker, _ = _coker_ker(table, _gens(table, degree + 1 - t), alpha, _gens(table, degree - b))
    _, ker = _coker_ker(table, _gens(table, degree - t), alpha, _gens(table, degree - 1 - b))
    cs, ks = _group_str(*coker), _group_str(*ker)
    ambiguous = cs != "0" and ks != "0"

    def order(g):
        free, tors = g
        if free:
            return None
        n = 1
        for x in tors:
            n *= x
        return n

    oc, ok = order(coker), order(ker)
    order_s = "inf" if oc is None or ok is None else str(oc * ok)
    if ambiguous:
        group = f"extension of {ks} by {cs}, order {order_s}"
    else:
        group = ks if cs == "0" else cs
    return {"coker": cs, "ker": ks, "ambiguous": ambiguous, "group": group,
            "order": order_s, "degree": str(degree)}


def data_path(root: str, name: str) -> str:
    return os.path.join(root, "src", "genera", "data", name + ".json")


# ----------------------------------------------------------------------
# output checks, one per request kind

# (weight2, index2, value at z = 0, parity under y -> 1/y) of each generator
GEN_SHAPE = {"a": (-2, 1, 0, -1), "phi01": (0, 2, 12, 1), "phi032": (0, 3, 2, 1),
             "phi02": (0, 4, 6, 1), "phi04": (0, 8, 3, 1)}
# dimc and Euler number of the bundled Calabi-Yau fixtures
FIXTURES = {"k3": (2, 24), "quintic": (3, -200)}


@lru_cache(maxsize=None)
def reference_form(name: str, qmax: int):
    """Exact generator or fixture genus from the product formulas, when one is known."""
    if name == "a":
        return a_form(qmax)
    if name == "phi01":
        return {k: v // 2 for k, v in two_phi01_form(qmax).items()}
    if name == "phi032":
        return phi032_form(qmax)
    if name == "k3":
        return two_phi01_form(qmax)
    if name == "quintic":
        return scale(phi032_form(qmax), -100)
    return None


@lru_cache(maxsize=None)
def a_power(k: int, qmax: int) -> dict:
    out = {(0, (0,)): 1}
    for _ in range(k):
        out = mul(out, a_form(qmax), qmax)
    return out


def _shape(obj, nvars, qmax, weight2, index2):
    if (obj["nvars"], obj["qmax"], obj["weight2"], obj["index2"]) != (nvars, qmax, weight2, index2):
        return (f"header nvars/qmax/weight2/index2 = {obj['nvars']}/{obj['qmax']}/"
                f"{obj['weight2']}/{obj['index2']}, want {nvars}/{qmax}/{weight2}/{index2}")
    terms = parse_series(obj)
    if any((r - index2) % 2 for (_n, R) in terms for r in R):
        return "support parity R = index2 (mod 2) broken"
    if any(n < 0 or n > qmax for (n, _R) in terms):
        return "term outside the q-window"
    return terms


def _law_all_vars(terms, qmax, index2, nvars):
    for var in range(nvars):
        for lam in (1, -1):
            checked, bad = elliptic_law(terms, qmax, index2, lam, var)
            if bad or not checked:
                return f"elliptic law fails in y{var + 1} at lambda={lam} ({len(bad)} of {checked})"
    return None


def _check_gen(e, rc, out):
    name, q = e["name"], e["qmax"]
    weight2, index2, ev, parity = GEN_SHAPE[name]
    obj = json.loads(out)
    terms = _shape(obj, 1, q, weight2, index2)
    if isinstance(terms, str):
        return terms
    if not obj["integral"] or any(not isinstance(c, int) for c in terms.values()):
        return "non-integral coefficients"
    flat = collapse(terms)
    if flat != ({(0, ()): ev} if ev else {}):
        return f"value at y = 1 is {sorted(flat.items())[:3]}, want the constant {ev}"
    if any(terms.get((n, (-R[0],)), 0) != parity * c for (n, R), c in terms.items()):
        return "wrong symmetry under y -> 1/y"
    bad = _law_all_vars(terms, q, index2, 1)
    if bad:
        return bad
    ref = reference_form(name, q)
    if ref is not None and terms != ref:
        return "differs from the product formula"
    return None


def _check_genus(e, rc, out):
    dimc, euler, nvars, q = e["dimc"], e["euler"], e["nvars"], e["qmax"]
    obj = json.loads(out)
    terms = _shape(obj, nvars, q, 0, dimc)
    if isinstance(terms, str):
        return terms
    if nvars == 1:
        flat = collapse(terms)
        if flat != ({(0, ()): euler} if euler else {}):
            return f"value at y = 1 is {sorted(flat.items())[:3]}, want Euler number {euler} at q^0"
    else:
        if collapse(terms):
            return "value at y1 = y2 = 1 is not 0"
        if any(terms.get((n, (R[1], R[0])), 0) != c for (n, R), c in terms.items()):
            return "not symmetric in y1 <-> y2"
        if collapse(terms, keep=(0,)) != scale(a_power(dimc, q), euler):
            return "value at y2 = 1 is not c_top * a(y1)^dimc"
    fixture = e.get("fixture")
    if fixture:
        bad = _law_all_vars(terms, q, dimc, nvars)
        if bad:
            return bad
        if nvars == 1 and terms != reference_form(fixture, q):
            return f"genus({fixture}) differs from the product formula"
    return None


def _check_selftest(e, rc, out):
    lines = out.splitlines()
    status = {}
    for line in lines:
        word, num, _rest = line.split(None, 2)
        status[int(num)] = word
    if sorted(status) != list(range(1, 15)) or len(lines) != 14:
        return f"expected criteria 1..14 once each, got {sorted(status)}"
    failing = sorted(n for n, w in status.items() if w != "PASS")
    if failing != [7] or status[7] != "FAIL":
        return f"failing criteria {failing}, want exactly [7]"
    return None if rc == 1 else f"exit {rc}, want 1"


def _check_rows(e, out, row):
    rows = json.loads(out)
    want = [row(k) for k in range(1, e["kmax"] + 1)]
    if len(rows) != len(want):
        return f"{len(rows)} rows, want {len(want)}"
    for got, exp in zip(rows, want):
        if got != exp:
            return f"row {got} != {exp}"
    return None


CHECKERS = {
    "gen": _check_gen,
    "genus": _check_genus,
    "selftest": _check_selftest,
    "dsu_easy": lambda e, rc, out: _check_rows(e, out, lambda k: {
        "k": str(k), "engine": str(d_su_easy(k)), "closed_form": str(d_su_easy(k)),
        "agree": "yes"}),
    "verify_clas": lambda e, rc, out: _check_rows(e, out, lambda k: {
        "k": str(k), "closed_form": str(d_clas(k)), "basis_gcd": str(d_clas(k)),
        "agree": "yes"}),
    "homotopy": lambda e, rc, out: None if json.loads(out) == e else f"got {out.strip()}",
    "order": lambda e, rc, out: None if json.loads(out) == e else f"got {out.strip()}",
    "hk": lambda e, rc, out: _check_hk(e, json.loads(out)),
    "verdict": lambda e, rc, out: _check_subset(e, json.loads(out)),
    "jf_check": lambda e, rc, out: None if json.loads(out) == e else f"got {out.strip()[:200]}",
}

# kinds whose expected exit code follows an expected verdict
_VERDICT_KEY = {"verdict": "divides", "jf_check": "ok"}


def _check_hk(e, obj):
    if obj.get("k") != e["k"] or obj.get("divisor") != e["divisor"]:
        return f"k/divisor {obj.get('k')}/{obj.get('divisor')}, want {e['k']}/{e['divisor']}"
    rel = obj.get("relations")
    if not rel or not all(isinstance(r, str) and r.endswith(" = 0") for r in rel):
        return "relations missing or malformed"
    return None


def _check_subset(e, obj):
    bad = {k: obj.get(k) for k in e if obj.get(k) != e[k]}
    return f"fields {bad}, want {({k: e[k] for k in bad})}" if bad else None


def verify(kind: str, expect: dict, rc: int, out: str):
    """None when the output and exit code are right, else a one-line reason."""
    if kind == "selftest":
        want_rc = 1
    elif kind in _VERDICT_KEY:
        want_rc = 0 if expect[_VERDICT_KEY[kind]] else 1
    else:
        want_rc = 0
    if rc != want_rc:
        return f"exit {rc}, want {want_rc}"
    try:
        return CHECKERS[kind](expect, rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
