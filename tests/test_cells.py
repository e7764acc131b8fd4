"""Graded coefficient tables, their audits, and the two-cell LES engine."""

import json
import math
import pathlib

import pytest

from genera import cells, genus
from genera._data import resolve_data
from genera.values import INF


@pytest.fixture(scope="module")
def pi_s():
    return cells.table_load("pi_S")


@pytest.fixture(scope="module")
def pi_tmf():
    return cells.table_load("pi_tmf")


@pytest.fixture(scope="module")
def mod_nu():
    return cells.complex_load("tmf_mod_nu")


@pytest.fixture(scope="module")
def mod_eta():
    return cells.complex_load("tmf_mod_eta")


def _write(tmp_path, obj, name="t.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def toy_table(**tweaks):
    base = {
        "name": "toy",
        "window": [0, 2],
        "connective": True,
        "groups": {
            "0": [{"order": 2, "gen": "a"}],
            "1": [{"order": 2, "gen": "b"}],
            "2": [{"order": 2, "gen": "c"}],
        },
        "action": [
            ["a", "a", "a"],
            ["a", "b", 0],
            ["a", "c", 0],
            ["b", "b", 0],
        ],
    }
    base.update(tweaks)
    return base


TOY_CPLX = {
    "name": "toy_mod_b",
    "cells": [{"deg": 0}, {"deg": 2, "attach": {"gen": "b", "mult": 1}}],
}


# ---------------------------------------------------------------- tables


def test_shipped_tables_pass_audit(pi_s, pi_tmf):
    assert (pi_s.lo, pi_s.hi) == (0, 7)
    assert (pi_tmf.lo, pi_tmf.hi) == (0, 8)
    assert [g.name for g in pi_tmf.gens(8)] == ["c4", "eps"]
    assert pi_s.gen("sigma").order == 240


def test_table_orders(pi_s):
    assert pi_s.gen("one").order == 0  # 0 encodes a Z summand
    assert pi_s.gen("nu").order == 24


def test_eta_times_eta2_is_twelve_nu(pi_s):
    prod = cells.mult(pi_s, pi_s.unit("eta"), pi_s.unit("eta2"))
    assert prod == pi_s.element([(12, "nu")])


def test_undeclared_product_raises(tmp_path):
    sparse = toy_table(action=[["a", "a", "a"], ["a", "b", 0], ["a", "c", 0]])
    t = cells.table_load(_write(tmp_path, sparse))
    with pytest.raises(cells.ProductError):
        cells.mult(t, t.unit("b"), t.unit("b"))


def test_table_load_by_literal_path(tmp_path):
    path = _write(tmp_path, toy_table())
    t = cells.table_load(path)
    assert (t.lo, t.hi) == (0, 2)


def test_unknown_table_name():
    with pytest.raises(FileNotFoundError):
        cells.table_load("pi_unknown")


def test_audit_duplicate_names(tmp_path):
    bad = toy_table()
    bad["groups"]["1"] = [{"order": 2, "gen": "a"}]
    with pytest.raises(cells.TableError):
        cells.table_load(_write(tmp_path, bad))


def test_audit_order_compatibility(tmp_path):
    bad = toy_table()
    bad["groups"]["2"] = [{"order": 4, "gen": "c"}]
    bad["action"] = [["b", "b", {"gen": "c", "mult": 1}]]
    # order(b) * (b*b) = 2c != 0 in Z/4
    with pytest.raises(cells.TableError):
        cells.table_load(_write(tmp_path, bad))


def test_audit_commutativity(tmp_path):
    bad = toy_table()
    bad["action"] = bad["action"] + [["b", "a", {"gen": "b", "mult": 1}]]
    # contradicts the declared a*b = 0 (sign (+1) in degrees 0,1)
    with pytest.raises(cells.TableError):
        cells.table_load(_write(tmp_path, bad))


def test_audit_associativity(tmp_path):
    bad = toy_table()
    bad["action"] = [
        ["a", "a", 0],
        ["a", "b", {"gen": "b", "mult": 1}],
    ]
    # (a a) b = 0 but a (a b) = b
    with pytest.raises(cells.TableError, match=r"associativity fails on \(a, a, b\)"):
        cells.table_load(_write(tmp_path, bad))


def _first_nonassociative_triple(table):
    # the audit's associativity rule, one triple at a time with no memo
    names = sorted(table.by_name)
    for x in names:
        for y in names:
            for z in names:
                u = table.unit
                try:
                    lhs = cells.mult(table, cells.mult(table, u(x), u(y)), u(z))
                    rhs = cells.mult(table, u(x), cells.mult(table, u(y), u(z)))
                except (cells.WindowError, cells.ProductError):
                    continue
                if lhs != rhs:
                    return x, y, z
    return None


@pytest.mark.parametrize("name", ["pi_S", "pi_tmf"])
def test_memoized_associativity_audit_matches_triple_by_triple(tmp_path, monkeypatch, name):
    # every shipped table with one product dropped or sent to zero: the audit
    # rejects exactly the tables the unmemoized rule rejects, at the same triple
    raw = json.loads(pathlib.Path(resolve_data(name)).read_text())
    variants = []
    for i, (g, h, _res) in enumerate(raw["action"]):
        rest = raw["action"][:i] + raw["action"][i + 1:]
        variants += [rest, rest + [[g, h, 0]]]
    real_audit = cells._audit
    monkeypatch.setattr(cells, "_audit", lambda table: None)
    outcomes = {"rejected": 0, "accepted": 0}
    for n, action in enumerate(variants):
        table = cells.table_load(_write(tmp_path, {**raw, "action": action}, f"v{n}.json"))
        want = _first_nonassociative_triple(table)
        try:
            real_audit(table)
        except cells.TableError as exc:
            if "associativity" not in str(exc):
                continue  # an earlier audit rejects the table first
            assert want is not None and str(exc).startswith(
                f"associativity fails on ({', '.join(want)})"), (n, exc)
            outcomes["rejected"] += 1
        else:
            assert want is None, (n, want)
            outcomes["accepted"] += 1
    assert all(outcomes.values()), outcomes


def test_audit_out_of_window_product(tmp_path):
    bad = toy_table()
    bad["action"] = bad["action"] + [["b", "c", 0]]
    with pytest.raises((cells.TableError, cells.WindowError)):
        cells.table_load(_write(tmp_path, bad))
    # action entries must be [gen, gen, result] lists, the action itself a list
    # and a zero product is the JSON integer 0, not false or 0.0
    for action in ([5], [["a", "a", "a"], "abc"], {"a": "a"}, [["a", "b", False]],
                   [["a", "b", 0.0]]):
        with pytest.raises(cells.TableError):
            cells.table_load(_write(tmp_path, toy_table(action=action)))


def test_audit_action_result_degree_and_duplicates(tmp_path):
    with pytest.raises(cells.TableError, match="product a\\*b has a in degree 0, expected 1"):
        cells.table_load(_write(tmp_path, toy_table(action=[["a", "b", "a"]])))
    with pytest.raises(cells.TableError, match="duplicate action entry a\\*b"):
        cells.table_load(_write(tmp_path, toy_table(action=[["a", "b", 0], ["a", "b", 0]])))


def test_graded_sign_on_odd_generators(tmp_path):
    # x, y in degree 1 and z in degree 2, all Z, so y*x = -x*y is visible
    odd = toy_table(
        groups={"0": [{"order": 0, "gen": "one"}], "1": [{"order": 0, "gen": "x"},
                {"order": 0, "gen": "y"}], "2": [{"order": 0, "gen": "z"}]},
        action=[["one", "one", "one"], ["one", "x", "x"], ["one", "y", "y"],
                ["one", "z", "z"], ["x", "y", "z"]],
    )
    t = cells.table_load(_write(tmp_path, odd))
    assert cells.mult(t, t.unit("y"), t.unit("x")) == cells.Element(2, (-1,))
    odd["action"].append(["y", "x", {"gen": "z", "mult": -1}])
    cells.table_load(_write(tmp_path, odd))
    odd["action"][-1] = ["y", "x", "z"]
    with pytest.raises(cells.TableError, match="x\\*y breaks graded commutativity"):
        cells.table_load(_write(tmp_path, odd))


def test_undeclared_product_into_empty_degree_is_zero(tmp_path):
    sparse = toy_table(action=[["a", "a", "a"], ["a", "b", 0]])
    sparse["groups"]["2"] = []
    t = cells.table_load(_write(tmp_path, sparse))
    assert cells.mult(t, t.unit("b"), t.unit("b")) == cells.Element(2, ())


def test_audit_window_shape(tmp_path):
    with pytest.raises(cells.TableError):
        cells.table_load(_write(tmp_path, toy_table(window=[2, 0])))


def test_audit_missing_degree(tmp_path):
    bad = toy_table()
    del bad["groups"]["1"]
    with pytest.raises(cells.TableError):
        cells.table_load(_write(tmp_path, bad))
    # group entries must be lists of {gen, order} objects with integer orders
    for entry in ([1], 5, [{"gen": "b"}], [{"gen": "b", "order": "2"}],
                  [{"gen": "b", "order": -2}], [{"order": 2}]):
        bad = toy_table()
        bad["groups"]["1"] = entry
        with pytest.raises(cells.TableError):
            cells.table_load(_write(tmp_path, bad))
    # not an object, groups not an object, connective not a JSON boolean
    for raw in ([1, 2], toy_table(groups=[]), toy_table(connective="false"),
                toy_table(connective=0), toy_table(connective=None)):
        with pytest.raises(cells.TableError):
            cells.table_load(_write(tmp_path, raw))


# ---------------------------------------------------------------- table loads


def test_loaded_table_is_read_only(pi_s):
    with pytest.raises(TypeError):
        pi_s.action[("one", "one")] = pi_s.unit("one")


def test_rewritten_table_is_reloaded(tmp_path):
    # same path, same size, rewritten at once: the mtime may not move, the bytes do
    path = _write(tmp_path, toy_table(name="toy1"))
    assert cells.table_load(path).name == "toy1"
    _write(tmp_path, toy_table(name="toy2"))
    assert cells.table_load(path).name == "toy2"


def test_malformed_table_raises_every_time(tmp_path):
    path = _write(tmp_path, toy_table(window=[2, 0]))
    for _ in range(2):
        with pytest.raises(cells.TableError, match="empty window"):
            cells.table_load(path)


# ---------------------------------------------------------------- elements


def test_element_orders(pi_s):
    assert cells.element_order(pi_s, "one") is INF
    assert cells.element_order(pi_s, "eta") == 2
    assert cells.element_order(pi_s, "nu") == 24
    assert cells.element_order(pi_s, [(12, "nu")]) == 2
    assert cells.element_order(pi_s, [(0, "nu")]) == 1


def test_element_order_knu_law(pi_s):
    for k in range(1, 49):
        assert cells.element_order(pi_s, [(k, "nu")]) == 24 // math.gcd(k, 24)


def test_element_order_mixed_degrees(pi_s):
    # lcm over degree components: order(eta) = 2, order(8 nu) = 3
    assert cells.element_order(pi_s, [(1, "eta"), (8, "nu")]) == 6


def test_element_spec_must_be_one_degree_and_nonempty(pi_s):
    with pytest.raises(cells.TableError, match="element spec has nu in degree 3, expected 1"):
        pi_s.element([(1, "eta"), (1, "nu")])
    for call in (pi_s.element, lambda spec: cells.element_order(pi_s, spec)):
        with pytest.raises(cells.TableError, match="empty element spec"):
            call([])


def test_parse_element_spec():
    assert cells.parse_element_spec("eta") == [(1, "eta")]
    assert cells.parse_element_spec("8*nu") == [(8, "nu")]
    assert cells.parse_element_spec("eta, 8*nu") == [(1, "eta"), (8, "nu")]
    with pytest.raises(ValueError):
        cells.parse_element_spec("eta,,nu")


@pytest.mark.parametrize("mult", [2.5, 2.0, "3", True, None])
def test_element_multiplier_must_be_an_int(pi_tmf, mult):
    # int() would read 2.5 * nu as 2 * nu, of order 12, instead of refusing it
    for call in (pi_tmf.element, lambda spec: cells.element_order(pi_tmf, spec)):
        with pytest.raises(cells.TableError, match=rf"term \({mult!r}, 'nu'\)"):
            call([(mult, "nu")])
        with pytest.raises(cells.TableError, match="integer multiplier"):
            call([(1, "nu"), (mult, "nu")])


def test_unknown_generator(pi_s):
    with pytest.raises(cells.TableError):
        pi_s.gen("zeta")


# ---------------------------------------------------------------- LES engine


def test_tmf_mod_nu_window(mod_nu, pi_tmf):
    want = ["Z", "Z/2", "Z/2", "0", "Z", "Z/2", "Z/2", "Z/12", "Z + Z/2"]
    got = [cells.cofiber_homotopy(mod_nu, pi_tmf, d).describe() for d in range(9)]
    assert got == want


def test_tmf_mod_nu_pi5_unambiguous(mod_nu, pi_tmf):
    g = cells.cofiber_homotopy(mod_nu, pi_tmf, 5)
    assert not g.ambiguous
    assert g.group == cells.AbGroup(0, (2,))


def test_tmf_mod_eta_low_degrees(mod_eta, pi_tmf):
    assert cells.cofiber_homotopy(mod_eta, pi_tmf, 0).describe() == "Z"
    assert cells.cofiber_homotopy(mod_eta, pi_tmf, 1).describe() == "0"
    assert cells.cofiber_homotopy(mod_eta, pi_tmf, 2).describe() == "Z"
    assert cells.cofiber_homotopy(mod_eta, pi_tmf, 3).describe() == "Z/12"


def test_connective_below_window(mod_nu, pi_tmf):
    g = cells.cofiber_homotopy(mod_nu, pi_tmf, -1)
    assert g.describe() == "0"


def test_above_window_raises(mod_nu, pi_tmf):
    with pytest.raises(cells.WindowError):
        cells.cofiber_homotopy(mod_nu, pi_tmf, 9)


def test_nonconnective_below_window_raises(tmp_path):
    table = cells.table_load(_write(tmp_path, toy_table(connective=False)))
    cplx = cells.complex_load(_write(tmp_path, TOY_CPLX, "c.json"))
    with pytest.raises(cells.WindowError):
        cells.cofiber_homotopy(cplx, table, -1)


def test_ambiguous_extension(tmp_path):
    table = cells.table_load(_write(tmp_path, toy_table()))
    cplx = cells.complex_load(_write(tmp_path, TOY_CPLX, "c.json"))
    g = cells.cofiber_homotopy(cplx, table, 2)
    assert g.ambiguous
    assert g.group is None
    assert g.describe() == "extension of Z/2 by Z/2, order 4"
    assert g.order == 4


def test_cofiber_serialization(mod_nu, pi_tmf):
    obj = cells.cofiber_homotopy(mod_nu, pi_tmf, 8).to_obj()
    assert obj == {
        "ambiguous": False,
        "coker": "Z + Z/2",
        "complex": "tmf_mod_nu",
        "degree": "8",
        "group": "Z + Z/2",
        "ker": "0",
        "order": "inf",
    }


# ---------------------------------------------------------------- images


def test_image_orders_in_eta_cofiber(mod_eta, pi_tmf):
    for kp in range(1, 25):
        got = cells.image_order_in_cofiber(
            pi_tmf.element([(kp, "nu")]), mod_eta, pi_tmf
        )
        assert got == 12 // math.gcd(kp, 12), kp


def test_image_order_in_nu_cofiber(mod_nu, pi_tmf):
    # pi_3 of the nu-cofiber is 0, so nu itself must die
    assert cells.image_order_in_cofiber(pi_tmf.element("nu"), mod_nu, pi_tmf) == 1


def test_image_order_of_zero(mod_eta, pi_tmf):
    assert cells.image_order_in_cofiber(pi_tmf.element([(0, "nu")]), mod_eta, pi_tmf) == 1
    # pi_tmf has no generator in degree 4, so its zero element has image order 1
    assert cells.image_order_in_cofiber(cells.Element(4, ()), mod_eta, pi_tmf) == 1


# ---------------------------------------------------------------- diagrams


DATA_DIR = pathlib.Path(cells.__file__).parent / "data"


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_data_loads(path):
    raw = json.loads(path.read_text())
    if "groups" in raw:
        cells.table_load(str(path))
    elif "cells" in raw:
        cplx = cells.complex_load(str(path))
        assert cplx.bottom == 0 and cplx.attach
    elif "numbers" in raw:
        genus.ChernData.load(str(path))
    else:
        pytest.fail(f"{path.name} matches no data loader")


def test_tjf2_matches_intro_claim(pi_tmf):
    cplx = cells.complex_load("tjf_2")
    assert cells.cofiber_homotopy(cplx, pi_tmf, 5).describe() == "Z/2"


NU = {"gen": "nu", "mult": 1}
ETA = {"gen": "eta", "mult": 1}

# malformed complex files, each with a fragment of the expected message
BAD_COMPLEXES = {
    "no-cells": ({"name": "x", "cells": []}, "has 0 cells"),
    "one-cell": ({"cells": [{"deg": 0}]}, "has 1 cells"),
    "three-cells": ({"cells": [{"deg": 0}, {"deg": 4, "attach": NU},
                               {"deg": 6, "attach": {"gen": "eta", "mult": 1}}]},
                    "has 3 cells"),
    "to-1": ({"cells": [{"deg": 0}, {"deg": 4, "attach": dict(NU, to=1)}]}, "cell 1"),
    "top-not-above": ({"cells": [{"deg": 4}, {"deg": 4, "attach": NU}]}, "must exceed"),
    "bottom-attach": ({"cells": [{"deg": 0, "attach": NU}, {"deg": 4, "attach": NU}]},
                      "bottom cell"),
    "top-no-attach": ({"cells": [{"deg": 0}, {"deg": 4}]}, "top cell"),
    "top-empty-attach": ({"cells": [{"deg": 0}, {"deg": 4, "attach": []}]}, "top cell"),
    "not-an-object": ([1, 2], "list of cell objects"),
    "cells-not-a-list": ({"cells": {"deg": 0}}, "list of cell objects"),
    "no-degree": ({"cells": [{}, {"deg": 4, "attach": NU}]}, "malformed"),
    "float-deg": ({"cells": [{"deg": 0}, {"deg": 2.9, "attach": ETA}]},
                  "deg must be a JSON integer"),
    "string-mult": ({"cells": [{"deg": 0}, {"deg": 2, "attach": dict(ETA, mult="1")}]},
                    "mult must be a JSON integer"),
    "string-to": ({"cells": [{"deg": 0}, {"deg": 4, "attach": dict(NU, to="0")}]},
                  "to must be a JSON integer"),
    "number-name": ({"name": 5, "cells": [{"deg": 0}, {"deg": 4, "attach": NU}]},
                    "name must be a JSON string"),
}


def test_complex_validation(tmp_path):
    for label, (obj, fragment) in BAD_COMPLEXES.items():
        with pytest.raises(cells.TableError, match=fragment):
            cells.complex_load(_write(tmp_path, obj, f"{label}.json"))
    ok = cells.complex_load(_write(tmp_path, {
        "cells": [{"deg": 0}, {"deg": 4, "attach": [dict(NU, to=0)]}]
    }, "ok.json"))
    assert (ok.name, ok.bottom, ok.top, ok.attach) == ("ok", 0, 4, ((1, "nu"),))


def test_attach_degree_checked(tmp_path, pi_tmf):
    cplx = cells.complex_load(_write(tmp_path, {
        "name": "bad",
        "cells": [{"deg": 0}, {"deg": 4, "attach": {"gen": "eta", "mult": 1}}],
    }))
    with pytest.raises(cells.TableError):
        cells.cofiber_homotopy(cplx, pi_tmf, 2)


# ---------------------------------------------------------------- dsu

def test_dsu_easy_matches_closed_form(pi_tmf, mod_eta):
    from genera import divis

    for k in range(1, 25):
        assert cells.dsu_easy(k, pi_tmf, mod_eta) == divis.d_su_easy_closed(k), k


def test_dsu_easy_validation(pi_tmf, mod_eta):
    with pytest.raises(ValueError):
        cells.dsu_easy(0, pi_tmf, mod_eta)
