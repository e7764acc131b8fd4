"""Command-line front end.

One binary, subcommand style.  Every command writes deterministic output for
fixed inputs: JSON with sorted keys, or csv/md tables with a fixed column
order.  Numeric leaves are emitted as decimal strings so arbitrarily large
integers and exact rationals survive any downstream parser.

Exit codes: 0 on success, 1 when a verification-style command finds a
failure, 2 on usage or file errors.

Every command runs in a fresh process, and on most requests the import is
dearer than the arithmetic, so each command pays only for itself: this
module loads no layer of the library (only values), every handler
imports its own layer, and the parser gets subcommands only for the group
that argv names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from genera.values import value_str

# Largest --qmax that jf gen and genus compute accept. In a fresh process on
# a 2-CPU host, jf gen phi04 takes about 1.3 s at qmax 100 and 3.6 s at 150;
# genus compute on k3 takes about 0.6 s at qmax 100.
QMAX_CAP = 100

# Largest --nvars that genus compute accepts. The dense products grow with
# the product of the exponent ranges, one range per variable: on the same
# host genus compute on k3 takes about 4.7 s at nvars 2 and qmax 40, 2.7 s
# at nvars 3 and qmax 10, 37 s at nvars 3 and qmax 20, and 16 s at nvars 4
# and qmax 6.
NVARS_CAP = 3


def _nonneg(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _qmax(text: str) -> int:
    n = _nonneg(text)
    if n > QMAX_CAP:
        raise argparse.ArgumentTypeError(f"must be <= {QMAX_CAP}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _nvars(text: str) -> int:
    n = _positive(text)
    if n > NVARS_CAP:
        raise argparse.ArgumentTypeError(f"must be <= {NVARS_CAP}")
    return n


def _emit_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _print_rows(rows, fmt: str, stream) -> None:
    """Render a list of uniform string-valued dicts as json, csv, or md."""
    if fmt == "json":
        _emit_json(rows, stream)
        return
    header = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
        return
    # markdown
    stream.write("| " + " | ".join(header) + " |\n")
    stream.write("|" + "|".join(" --- " for _ in header) + "|\n")
    for row in rows:
        stream.write("| " + " | ".join(row[h] for h in header) + " |\n")


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_jf_gen(args, out) -> int:
    from genera import jacobi

    s = jacobi.generator(args.name, args.qmax)
    _emit_json(jacobi.JacobiForm(*jacobi.GRADINGS[args.name], s).to_obj(), out)
    return 0


def _cmd_jf_check(args, out) -> int:
    from genera import jacobi

    f = jacobi.JacobiForm.from_obj(_load_json_file(args.file))
    rep = jacobi.check_elliptic_law(f.series, f.index2, args.lam)
    _emit_json(
        {
            "lambda": value_str(rep.lam),
            "pairs_checked": value_str(rep.pairs_checked),
            "vacuous": rep.vacuous,
            "ok": rep.ok,
            # integer positions and Fraction coefficients, "p/q" when not integral
            "violations": [[str(v) for v in row] for row in rep.violations],
        },
        out,
    )
    return 0 if rep.ok else 1


def _cmd_genus_compute(args, out) -> int:
    from genera import genus
    from genera.jacobi import JacobiForm

    m = genus.ChernData.load(args.chern)
    s = genus.elliptic_genus(m, nvars=args.nvars, qmax=args.qmax)
    _emit_json(JacobiForm(0, m.dimc, s).to_obj(), out)
    return 0


def _cmd_genus_euler(args, out) -> int:
    from genera import genus

    m = genus.ChernData.load(args.chern)
    out.write(f"{genus.euler_number(m)}\n")
    return 0


def _cmd_divis_table(args, out) -> int:
    from genera import divis

    _print_rows(divis.table_rows(args.kmax), args.format, out)
    return 0


def _cmd_divis_verify_clas(args, out) -> int:
    from genera import divis

    rows = divis.verify_clas_rows(args.kmax)
    _print_rows(rows, args.format, out)
    return 0 if all(row["agree"] == "yes" for row in rows) else 1


def _cmd_divis_verdict(args, out) -> int:
    from genera import divis

    v = divis.euler_verdict(args.structure, args.k, args.euler)
    _emit_json(v.to_obj(), out)
    return 0 if v.ok else 1


def _cmd_cells_homotopy(args, out) -> int:
    from genera import cells

    cplx = cells.complex_load(args.complex)
    table = cells.table_load(args.table)
    group = cells.cofiber_homotopy(cplx, table, args.deg)
    _emit_json(group.to_obj(), out)
    return 0


def _cmd_cells_order(args, out) -> int:
    from genera import cells

    table = cells.table_load(args.table)
    spec = cells.parse_element_spec(args.element)
    order = cells.element_order(table, spec)
    _emit_json(
        {"table": args.table, "element": args.element, "order": value_str(order)},
        out,
    )
    return 0


def _cmd_cells_dsu_easy(args, out) -> int:
    from genera import cells, divis

    table, cofib = cells.table_load("pi_tmf"), cells.complex_load("tmf_mod_eta")
    rows = []
    for k in range(1, args.kmax + 1):
        engine = cells.dsu_easy(k, table, cofib)
        closed = divis.d_su_easy_closed(k)
        rows.append(
            {
                "k": str(k),
                "engine": value_str(engine),
                "closed_form": value_str(closed),
                "agree": "yes" if engine == closed else "no",
            }
        )
    _print_rows(rows, args.format, out)
    return 0 if all(row["agree"] == "yes" for row in rows) else 1


def _cmd_hk_solve(args, out) -> int:
    from genera import hodge

    system = hodge.hk_match(args.k)
    _emit_json(
        {
            "k": str(args.k),
            "relations": [f"{hodge.relation_str(system.unknowns, row)} = 0"
                          for row in system.equations + system.derived()],
            "divisor": str(hodge.hk_divisibility(args.k)),
        },
        out,
    )
    return 0


def _cmd_selftest(args, out) -> int:
    from genera import acceptance

    return 0 if acceptance.run_all(out) else 1


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv", "md"),
        default="json",
        help="table output format (default json)",
    )


def _jf_commands(group) -> None:
    from genera.jacobi import GRADINGS

    jfsub = group.add_subparsers(dest="subcommand", required=True)
    gen = jfsub.add_parser("gen", help="print a ring generator as JSON")
    gen.add_argument("name", choices=GRADINGS)
    gen.add_argument("--qmax", type=_qmax, default=10,
                     help=f"highest q-power kept, 0..{QMAX_CAP} (default 10)")
    gen.set_defaults(func=_cmd_jf_gen)
    chk = jfsub.add_parser("check", help="verify the elliptic transformation law")
    chk.add_argument("file", help="JSON file as written by 'jf gen' or 'genus compute'")
    chk.add_argument("--lambda", dest="lam", type=int, default=1)
    chk.set_defaults(func=_cmd_jf_check)


def _genus_commands(group) -> None:
    gnsub = group.add_subparsers(dest="subcommand", required=True)
    comp = gnsub.add_parser("compute", help="print the genus as JSON")
    comp.add_argument("--chern", required=True, help="Chern-number file or fixture name")
    comp.add_argument("--nvars", type=_nvars, default=1,
                      help=f"elliptic variables, 1..{NVARS_CAP} (default 1)")
    comp.add_argument("--qmax", type=_qmax, default=10,
                      help=f"highest q-power kept, 0..{QMAX_CAP} (default 10)")
    comp.set_defaults(func=_cmd_genus_compute)
    eul = gnsub.add_parser("euler", help="print the Euler number")
    eul.add_argument("--chern", required=True, help="Chern-number file or fixture name")
    eul.set_defaults(func=_cmd_genus_euler)


def _divis_commands(group) -> None:
    dvsub = group.add_subparsers(dest="subcommand", required=True)
    tab = dvsub.add_parser("table", help="print all four families for k = 1..kmax")
    tab.add_argument("--kmax", type=_positive, required=True)
    _add_format(tab)
    tab.set_defaults(func=_cmd_divis_table)
    ver = dvsub.add_parser(
        "verify-clas", help="closed form vs gcd-of-basis oracle for d_clas"
    )
    ver.add_argument("--kmax", type=_positive, required=True)
    _add_format(ver)
    ver.set_defaults(func=_cmd_divis_verify_clas)
    vd = dvsub.add_parser("verdict", help="does a divisibility constant allow an Euler number")
    vd.add_argument("--structure", choices=("SU", "Sp", "SO"), required=True)
    vd.add_argument("--k", type=_positive, required=True)
    vd.add_argument("--euler", type=int, required=True)
    vd.set_defaults(func=_cmd_divis_verdict)


def _cells_commands(group) -> None:
    clsub = group.add_subparsers(dest="subcommand", required=True)
    hom = clsub.add_parser("homotopy", help="homotopy of a cofiber in one degree")
    hom.add_argument("--complex", required=True, help="cell-complex file or name")
    hom.add_argument("--table", required=True, help="coefficient-table file or name")
    hom.add_argument("--deg", type=int, required=True)
    hom.set_defaults(func=_cmd_cells_homotopy)
    orde = clsub.add_parser("order", help="order of an element of a table")
    orde.add_argument("--table", required=True)
    orde.add_argument(
        "--element", required=True, help="comma-separated terms, e.g. 'eta' or '8*nu'"
    )
    orde.set_defaults(func=_cmd_cells_order)
    dse = clsub.add_parser(
        "dsu-easy", help="cofiber-engine SU estimates vs the closed form"
    )
    dse.add_argument("--kmax", type=_positive, required=True)
    _add_format(dse)
    dse.set_defaults(func=_cmd_cells_dsu_easy)


def _hk_commands(group) -> None:
    hksub = group.add_subparsers(dest="subcommand", required=True)
    slv = hksub.add_parser("solve", help="match equations, derived relation, Euler divisor")
    slv.add_argument("--k", type=int, choices=(2, 3), required=True)
    slv.set_defaults(func=_cmd_hk_solve)


def _selftest_commands(group) -> None:
    group.set_defaults(func=_cmd_selftest)


# name -> (help, function that adds the group's subcommands)
_GROUPS = {
    "jf": ("Jacobi form generators and checks", _jf_commands),
    "genus": ("elliptic genus from Chern numbers", _genus_commands),
    "divis": ("divisibility constants", _divis_commands),
    "cells": ("cell complexes over coefficient tables", _cells_commands),
    "hk": ("hyperkahler Hodge-number systems", _hk_commands),
    "selftest": ("run the full acceptance suite", _selftest_commands),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The full parser, or for an argv only the groups it names.

    argparse enters a group only when argv holds its name as an exact token,
    so a group named by no token needs no subcommands: help, usage errors and
    parse results are the same as with every group built.
    """
    p = argparse.ArgumentParser(
        prog="genera",
        description="Exact Jacobi-form series, elliptic genera, divisibility "
        "constants, cell-complex homotopy windows, and Hodge-number systems.",
    )
    p.add_argument(
        "--data-dir",
        help="directory searched for named tables and fixtures "
        "(same effect as GENERA_DATA_DIR)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, add_commands) in _GROUPS.items():
        group = sub.add_parser(name, help=help_)
        if argv is None or name in argv:
            add_commands(group)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    saved_data_dir = os.environ.get("GENERA_DATA_DIR")
    if args.data_dir:
        os.environ["GENERA_DATA_DIR"] = args.data_dir
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:  # the library's data errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the flag applies to this command only, not to later calls in the process
        if args.data_dir:
            if saved_data_dir is None:
                os.environ.pop("GENERA_DATA_DIR", None)
            else:
                os.environ["GENERA_DATA_DIR"] = saved_data_dir


if __name__ == "__main__":
    raise SystemExit(main())
