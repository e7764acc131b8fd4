"""Seeded request lists for the three workloads, and the input files they read.

A workload is a list of request slots.  Each slot fixes the command and its
size parameter or a narrow range for it; the seed picks the value inside
each range, the Chern numbers and series written to disk, and the order of
the slots.  One pass of the list therefore has about the same cost for every
seed, while the inputs themselves differ.  The timed loop repeats whole
passes of the same list.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import lcm

import checks

TWO_CELL = ("tmf_mod_nu", "tmf_mod_eta", "tjf_2", "tejf_2")
TABLES = ("pi_S", "pi_tmf")


@dataclass
class Request:
    rid: str
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ----------------------------------------------------------------------
# jf-gen: every generator at small and large q
#
# Thirteen light slots (q up to 16, 0.2-0.3 s) hold the median; seven heavy
# slots with a fixed q (13-20) hold the p75 tail, so the tail costs the same
# for every seed.  The seed draws q inside each light range.

JF_GEN_SLOTS = (
    ("a", 8, 9), ("a", 10, 11), ("a", 12, 13), ("a", 14, 16),
    ("phi01", 8, 9), ("phi01", 10, 11), ("phi01", 12, 13), ("phi01", 14, 16),
    ("phi032", 8, 9), ("phi032", 10, 11), ("phi032", 16, 16), ("phi032", 19, 19),
    ("phi02", 8, 9), ("phi02", 10, 11), ("phi02", 17, 17), ("phi02", 20, 20),
    ("phi04", 8, 9), ("phi04", 13, 13), ("phi04", 16, 16), ("phi04", 19, 19),
)


def _jf_gen(rng: random.Random, work: str, root: str) -> list:
    reqs = []
    for name, lo, hi in JF_GEN_SLOTS:
        q = rng.randint(lo, hi)
        reqs.append(Request(f"{name}-q{q}", "gen", ["jf", "gen", name, "--qmax", str(q)],
                            {"name": name, "qmax": q}))
    return reqs


# ----------------------------------------------------------------------
# genus: seeded Chern-number files plus the bundled K3 and quintic
#
# (source, nvars, qmax); source is a dimc for a seeded random file or a
# fixture name.  The seed draws the Chern numbers of the random files.
# Slots are grouped by cost so
# that the median and the p75 tail each fall inside a group of similar
# requests: four cheap nvars-2 slots, six near 0.45 s, three near 0.7 s and
# three slower ones.

GENUS_SLOTS = (
    (2, 2, 3), (2, 2, 4), (3, 2, 2), ("k3", 2, 3),
    (2, 1, 10), (2, 1, 10), (3, 1, 6), (3, 1, 6), (4, 1, 4), ("k3", 1, 8),
    (2, 1, 14), (4, 1, 6), ("quintic", 1, 8),
    (3, 1, 10), ("k3", 1, 12), (4, 1, 8),
)


def _genus(rng: random.Random, work: str, root: str) -> list:
    reqs = []
    for i, (src, nvars, q) in enumerate(GENUS_SLOTS):
        if isinstance(src, str):
            dimc, euler = checks.FIXTURES[src]
            chern, label = src, src
        else:
            dimc = src
            numbers = {",".join(map(str, p)): rng.randint(-400, 400) for p in partitions(dimc)}
            euler = numbers[str(dimc)]
            label = f"rand{i}-d{dimc}"
            chern = _write_json(os.path.join(work, label + ".json"),
                                {"label": label, "dimc": dimc, "numbers": numbers})
        reqs.append(Request(
            f"{label}-v{nvars}-q{q}", "genus",
            ["genus", "compute", "--chern", chern, "--nvars", str(nvars), "--qmax", str(q)],
            {"dimc": dimc, "euler": euler, "nvars": nvars, "qmax": q,
             "fixture": src if isinstance(src, str) else None}))
    return reqs


# ----------------------------------------------------------------------
# checks: verification commands, table and complex loads, series reads

# jf check inputs, label -> (weight2, index2, terms), computed by the benchmark itself
def _law_forms(q: int) -> dict:
    a = checks.a_form(q)
    a2 = checks.mul(a, a, q)
    return {
        "a": (-2, 1, a),
        "a2": (-4, 2, a2),
        "a3": (-6, 3, checks.mul(a2, a, q)),
        "phi032": (0, 3, checks.phi032_form(q)),
        "2phi01": (0, 2, checks.two_phi01_form(q)),
        "a-phi032": (-2, 4, checks.mul(a, checks.phi032_form(q), q)),
    }


def _law_file(rng: random.Random, work: str, i: int, corrupt: bool) -> tuple:
    q = rng.randint(8, 14)
    forms = _law_forms(q)
    label = rng.choice(sorted(forms))
    weight2, index2, terms = forms[label]
    c = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
    terms = checks.scale(terms, c)
    if corrupt:
        key = rng.choice(sorted(terms))
        terms = dict(terms)
        terms[key] += rng.choice((-3, -1, 1, 2))
        terms = {k: v for k, v in terms.items() if v}
    path = _write_json(os.path.join(work, f"law{i}-{label}-q{q}.json"),
                       checks.series_obj(terms, q, weight2, index2))
    return path, f"{label}x{c}{'-bad' if corrupt else ''}-q{q}", terms, q, index2


# K ranges of dsu-easy (one table load and audit per k) and verify-clas (one
# basis gcd per k); four dsu-easy slots of similar cost sit where the p75 tail
# falls, so the tail reads one kind of request
DSU_EASY_K = ((40, 48), (52, 60), (64, 72), (76, 84), (120, 132), (185, 200))
VERIFY_CLAS_K = ((24, 60), (80, 120), (140, 170), (185, 200))


def _checks(rng: random.Random, work: str, root: str) -> list:
    reqs = [Request("selftest", "selftest", ["selftest"])]
    for lo, hi in DSU_EASY_K:
        k = rng.randint(lo, hi)
        reqs.append(Request(f"dsu-easy-{k}", "dsu_easy", ["cells", "dsu-easy", "--kmax", str(k)],
                            {"kmax": k}))
    for lo, hi in VERIFY_CLAS_K:
        k = rng.randint(lo, hi)
        reqs.append(Request(f"verify-clas-{k}", "verify_clas",
                            ["divis", "verify-clas", "--kmax", str(k)], {"kmax": k}))
    for _ in range(3):
        cname, tname = rng.choice(TWO_CELL), rng.choice(TABLES)
        table = checks.load_table(checks.data_path(root, tname))
        cplx = checks.load_two_cell(checks.data_path(root, cname))
        deg = rng.randint(0, table["hi"])
        want = checks.cofiber_group(table, cplx, deg)
        want["complex"] = cname
        reqs.append(Request(f"homotopy-{cname}-{tname}-{deg}", "homotopy",
                            ["cells", "homotopy", "--complex", cname, "--table", tname,
                             "--deg", str(deg)], want))
    for with_eta in (False, True):
        tname, k = rng.choice(TABLES), rng.randint(1, 96)
        spec = f"eta,{k}*nu" if with_eta else f"{k}*nu"
        order = checks.nu_order(k)
        if with_eta:
            order = lcm(2, order)
        reqs.append(Request(f"order-{tname}-{spec}", "order",
                            ["cells", "order", "--table", tname, "--element", spec],
                            {"table": tname, "element": spec, "order": str(order)}))
    for k, divisor in ((2, 12), (3, 8)):
        reqs.append(Request(f"hk-{k}", "hk", ["hk", "solve", "--k", str(k)],
                            {"k": str(k), "divisor": str(divisor)}))
    for structure in ("SU", "Sp", "SO"):
        k = rng.randint(1, 48)
        euler = rng.choice((0, 1, 2, 3)) * rng.choice((1, 2, 3, 4, 6, 8, 12, 24)) * rng.randint(1, 9)
        want = checks.verdict(structure, k, euler)
        want.update(structure=structure, k=str(k))
        reqs.append(Request(f"verdict-{structure}-{k}-{euler}", "verdict",
                            ["divis", "verdict", "--structure", structure, "--k", str(k),
                             "--euler", str(euler)], want))
    for i, corrupt in enumerate((False, False, True, True)):
        path, label, terms, q, index2 = _law_file(rng, work, i, corrupt)
        lam = rng.choice((-2, -1, 1, 2))
        checked, violations = checks.elliptic_law(terms, q, index2, lam)
        reqs.append(Request(f"jf-check-{label}-l{lam}", "jf_check",
                            ["jf", "check", path, "--lambda", str(lam)],
                            {"lambda": str(lam), "pairs_checked": str(checked),
                             "vacuous": checked == 0, "ok": not violations,
                             "violations": [[str(n), str(R[0]), str(n2), str(R2[0]), str(e), str(g)]
                                            for n, R, n2, R2, e, g in violations]}))
    return reqs


WORKLOADS = {"jf-gen": _jf_gen, "genus": _genus, "checks": _checks}


def build(workload: str, seed: int, work: str, root: str) -> list:
    """The request list of one pass, with its input files written under work."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = WORKLOADS[workload](rng, work, root)
    rng.shuffle(reqs)
    return reqs
