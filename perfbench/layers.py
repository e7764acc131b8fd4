"""Per-layer metrics from the span files the tracer writes, one per request.

A span's self time is its duration minus the durations of its direct child
spans (calls nest, so children never overlap).  A function's or layer's
inclusive time counts only spans with no ancestor of the same name or
layer, so recursion and calls inside the layer are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

CRITERIA = range(1, 15)

# metric name -> unit, better; the order is the order of the report
METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "series.mul.count": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.mul.self_share": ("ratio", "lower"),
    "series.self_share": ("ratio", "lower"),
    "series.mul.term_pairs": ("count", "lower"),
    "series.mul.useful_ratio": ("ratio", "higher"),
    "series.mul.terms_max": ("count", "lower"),
    "series.coeff_bits_max": ("bits", "lower"),
    "series.inverse.count": ("count", "lower"),
    "series.inverse.s": ("s", "lower"),
    "series.add.self_s": ("s", "lower"),
    "series.init.count": ("count", "lower"),
    "series.to_obj.s": ("s", "lower"),
    "series.from_obj.s": ("s", "lower"),
    "modular.s": ("s", "lower"),
    "jacobi.generator.s": ("s", "lower"),
    "jacobi.generator.self_s": ("s", "lower"),
    "jacobi.check_elliptic_law.s": ("s", "lower"),
    "jacobi.dclas_gcd_via_basis.s": ("s", "lower"),
    "genus.factor_polynomial.count": ("count", "lower"),
    "genus.factor_polynomial.s": ("s", "lower"),
    "genus.integrand_expansion.self_s": ("s", "lower"),
    "genus.elliptic_genus.s": ("s", "lower"),
    "divis.s": ("s", "lower"),
    "cells.table_load.count": ("count", "lower"),
    "cells.table_load.distinct": ("count", "lower"),
    "cells.table_load.s": ("s", "lower"),
    "cells.complex_load.count": ("count", "lower"),
    "cells.mult.count": ("count", "lower"),
    "cells.cofiber_homotopy.s": ("s", "lower"),
    "cells.image_order_in_cofiber.s": ("s", "lower"),
    "cells.element_order.count": ("count", "lower"),
    "intlin.calls": ("count", "lower"),
    "intlin.s": ("s", "lower"),
    "hodge.hk_match.s": ("s", "lower"),
    "hodge.hk_divisibility.s": ("s", "lower"),
    "acceptance.run_all.s": ("s", "lower"),
    **{f"acceptance.crit.{n}.s": ("s", "lower") for n in CRITERIA},
    "trace.hooks_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

class Totals:
    """Sums over traced requests, reported per pass of the request list."""

    def __init__(self):
        self.incl = defaultdict(float)  # per function name, outermost calls only
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_incl = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct_tables = 0
        self.import_s = 0.0
        self.startup_s = 0.0

    def add(self, doc: dict, wall: float) -> None:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for _name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        anc_names: list = [frozenset()] * len(spans)
        anc_layers: list = [frozenset()] * len(spans)
        main_s = 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if parent >= 0:
                pname = spans[parent][0]
                anc_names[i] = anc_names[parent] | {pname}
                anc_layers[i] = anc_layers[parent] | {pname.split(".", 1)[0]}
            dur = t1 - t0
            if name not in anc_names[i]:
                self.incl[name] += dur
            self.self_[name] += dur - child[i]
            self.calls[name] += 1
            if layer not in anc_layers[i]:
                self.layer_incl[layer] += dur
            self.layer_calls[layer] += 1
            if name == "cli.main":
                main_s += dur
        for k, v in doc["counts"].items():
            self.counts[k] += v
        for k, v in doc["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        self.distinct_tables += len(doc["tables"])
        self.import_s += doc["import_s"]
        self.startup_s += wall - main_s

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        per = 1.0 / passes
        c, incl, self_ = self.counts, self.incl, self.self_
        pairs = c["series.mul.term_pairs"]
        main_s = incl["cli.main"]
        hooks_s = incl["trace.hooks"]
        work_s = main_s - hooks_s  # cli.main time less the tracer's own bookkeeping
        series_self = sum(v for k, v in self_.items() if k.startswith("series."))
        raw = {
            "cli.import_s": self.import_s,
            "cli.main_s": main_s,
            "cli.startup_s": self.startup_s,
            "series.mul.count": self.calls["series.mul"],
            "series.mul.self_s": self_["series.mul"],
            "series.mul.term_pairs": pairs,
            "series.inverse.count": self.calls["series.inverse"],
            "series.inverse.s": incl["series.inverse"],
            "series.add.self_s": self_["series.add"],
            "series.init.count": c["series.init"],
            "series.to_obj.s": incl["series.to_obj"],
            "series.from_obj.s": incl["series.from_obj"],
            "modular.s": self.layer_incl["modular"],
            "jacobi.generator.s": incl["jacobi.generator"],
            "jacobi.generator.self_s": self_["jacobi.generator"],
            "jacobi.check_elliptic_law.s": incl["jacobi.check_elliptic_law"],
            "jacobi.dclas_gcd_via_basis.s": incl["jacobi.dclas_gcd_via_basis"],
            "genus.factor_polynomial.count": self.calls["genus.factor_polynomial"],
            "genus.factor_polynomial.s": incl["genus.factor_polynomial"],
            "genus.integrand_expansion.self_s": self_["genus.integrand_expansion"],
            "genus.elliptic_genus.s": incl["genus.elliptic_genus"],
            "divis.s": self.layer_incl["divis"],
            "cells.table_load.count": self.calls["cells.table_load"],
            "cells.table_load.distinct": self.distinct_tables,
            "cells.table_load.s": incl["cells.table_load"],
            "cells.complex_load.count": self.calls["cells.complex_load"],
            "cells.mult.count": c["cells.mult.count"],
            "cells.cofiber_homotopy.s": incl["cells.cofiber_homotopy"],
            "cells.image_order_in_cofiber.s": incl["cells.image_order_in_cofiber"],
            "cells.element_order.count": self.calls["cells.element_order"],
            "intlin.calls": self.layer_calls["intlin"],
            "intlin.s": self.layer_incl["intlin"],
            "hodge.hk_match.s": incl["hodge.hk_match"],
            "hodge.hk_divisibility.s": incl["hodge.hk_divisibility"],
            "acceptance.run_all.s": incl["acceptance.run_all"],
            **{f"acceptance.crit.{n}.s": incl[f"acceptance.crit.{n}"] for n in CRITERIA},
        }
        out = {k: v * per for k, v in raw.items()}
        out["series.mul.self_share"] = self_["series.mul"] / work_s if work_s else 0.0
        out["series.self_share"] = series_self / work_s if work_s else 0.0
        out["trace.hooks_s"] = hooks_s * per
        out["series.mul.useful_ratio"] = c["series.mul.useful_pairs"] / pairs if pairs else 0.0
        out["series.mul.terms_max"] = self.maxima["series.mul.terms_max"]
        out["series.coeff_bits_max"] = self.maxima["series.coeff_bits_max"]
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: {"value": out[k], "unit": METRICS[k][0]} for k in METRICS}
