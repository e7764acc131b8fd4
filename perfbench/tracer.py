"""Run one `genera` CLI request with a span recorded around every layer call.

Usage: python tracer.py SPANS_PATH ARGS...   (ARGS as for `python -m genera.cli`)

The program is not modified.  Before `cli.main` runs, the public functions of
each `genera` module, each `Criterion.run` of the selftest, and the hot
`LaurentSeries` methods are replaced by wrappers in every module that holds a
reference to them (the program calls through module globals).  A wrapper
records a span (name, start, end, parent) in memory; counters that are too
frequent for a span are kept as plain counts.  Everything is written to
SPANS_PATH as JSON when the request ends.  Work a wrapper does after its call
returns (counting term pairs, resolving table paths) is itself recorded as a
`trace.hooks` span, so it is not charged to the caller's self time.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = {
    "modular": "genera.modular",
    "jacobi": "genera.jacobi",
    "genus": "genera.genus",
    "divis": "genera.divis",
    "cells": "genera.cells",
    "intlin": "genera._intlin",
    "hodge": "genera.hodge",
    "acceptance": "genera.acceptance",
}
COUNT_ONLY = {"cells.mult"}  # called hundreds of thousands of times by the table audit


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = {}
        self.maxima = {"series.mul.terms_max": 0, "series.coeff_bits_max": 0}
        self.tables = set()

    def span(self, name, fn, post=None):
        spans, stack, now = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if post is not None:
                post(args, result)
                spans.append(("trace.hooks", t1, now(), parent))
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value


def _mul_stats(rec, LaurentSeries):
    def post(args, result):
        if result is NotImplemented:
            return
        a, other = args[0].coeffs, args[1]
        if isinstance(other, LaurentSeries):
            b, qmax = other.coeffs, result.qmax
            cum = [0] * (qmax + 1)
            for (n, _R) in b:
                if n <= qmax:
                    cum[n] += 1
            for n in range(1, qmax + 1):
                cum[n] += cum[n - 1]
            pairs = len(a) * len(b)
            useful = sum(cum[qmax - n] for (n, _R) in a if n <= qmax)
        else:
            b = ()
            pairs = useful = len(a)
        rec.bump("series.mul.term_pairs", pairs)
        rec.bump("series.mul.useful_pairs", useful)
        rec.peak("series.mul.terms_max", max(len(a), len(b), len(result.coeffs)))
        bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for c in result.coeffs.values()), default=0)
        rec.peak("series.coeff_bits_max", bits)

    return post


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would time only the creation of the generator
        yield name, obj


def install(rec):
    """Patch every genera module; returns the wrapped cli.main."""
    from genera import _data, acceptance, cli, series

    LS = series.LaurentSeries
    mul = rec.span("series.mul", LS.__mul__, post=_mul_stats(rec, LS))
    LS.__mul__ = LS.__rmul__ = mul
    add = rec.span("series.add", LS.__add__)
    LS.__add__ = LS.__radd__ = add
    LS.__pow__ = rec.span("series.pow", LS.__pow__)
    LS.inverse = rec.span("series.inverse", LS.inverse)
    LS.to_obj = rec.span("series.to_obj", LS.to_obj)
    LS.from_obj = classmethod(rec.span("series.from_obj", LS.__dict__["from_obj"].__func__))
    LS.__init__ = rec.count("series.init", LS.__init__)

    def table_post(args, result):
        rec.tables.add(os.path.realpath(_data.resolve_data(args[0])))

    replace = {}
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        for name, fn in _public_functions(mod):
            full = f"{layer}.{name}"
            if full in COUNT_ONLY:
                replace[id(fn)] = (fn, rec.count(f"{full}.count", fn))
            else:
                post = table_post if full == "cells.table_load" else None
                replace[id(fn)] = (fn, rec.span(full, fn, post=post))
    for modname, mod in list(sys.modules.items()):
        if modname != "genera" and not modname.startswith("genera."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    acceptance.CRITERIA = tuple(
        dataclasses.replace(c, run=rec.span(f"acceptance.crit.{c.num}", c.run))
        for c in acceptance.CRITERIA
    )
    return rec.span("cli.main", cli.main)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import genera.cli  # noqa: F401  (timed: the import every command pays)
    import_s = time.perf_counter() - t0
    rec = Recorder()
    cli_main = install(rec)
    try:
        return cli_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": rec.spans, "counts": rec.counts,
                       "maxima": rec.maxima, "tables": sorted(rec.tables)}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
