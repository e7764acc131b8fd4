"""Command-line front end.

One binary, subcommand style.  Every command writes deterministic output for
fixed inputs: JSON with sorted keys, or csv/md tables with a fixed column
order.  Numeric leaves are emitted as decimal strings so arbitrarily large
integers and exact rationals survive any downstream parser.  All JSON output
is the text of values.json_text, written by _emit_json in one write.

Exit codes: 0 on success, 1 when a verification-style command finds a
failure, 2 on usage or file errors.

Every command runs in a fresh process, and on most requests the import is
dearer than the arithmetic, so each command pays only for itself: this
module loads no layer of the library (only values), and every handler
imports its own layer. Nor does it load json: only the commands that parse
JSON files (jf check, genus, cells and selftest) import it. The grammar is
one table, _COMMANDS. main parses a well-formed argv straight from it and
imports no argparse; build_parser makes the argparse parser from the same
table only for what the table parse leaves to it: help, usage errors, and
the spellings argparse also accepts, such as an abbreviated flag or
--flag=value.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from genera.values import json_text, unique_keys, value_str

# Largest --qmax that jf gen and genus compute accept. In a fresh process on
# a shared 2-CPU host, output included (medians of 7, over rounds as the
# host's speed drifted), the slowest jf gen, phi02, takes 0.22 to 0.29 s at
# qmax 100; genus compute on k3 takes 0.2 to 0.35 s at qmax 100.
QMAX_CAP = 100

# Largest --nvars that genus compute accepts. The dense products grow with
# the product of the exponent ranges, one range per variable: on the same
# host genus compute on k3 takes about 3 s at nvars 2 and qmax 40, 1.8 s at
# nvars 3 and qmax 10 and 23 s at nvars 3 and qmax 20, and the library's
# elliptic_genus takes 14 s at nvars 4 and qmax 6.
NVARS_CAP = 3


def _type_error(message: str) -> Exception:
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _nonneg(text: str) -> int:
    n = int(text)
    if n < 0:
        raise _type_error("must be >= 0")
    return n


def _qmax(text: str) -> int:
    n = _nonneg(text)
    if n > QMAX_CAP:
        raise _type_error(f"must be <= {QMAX_CAP}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise _type_error("must be >= 1")
    return n


def _nvars(text: str) -> int:
    n = _positive(text)
    if n > NVARS_CAP:
        raise _type_error(f"must be <= {NVARS_CAP}")
    return n


def _emit_json(obj, stream) -> None:
    stream.write(json_text(obj) + "\n")


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
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


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


_DATA_DIR = ("--data-dir", {"help": "directory searched for named tables and fixtures "
                                    "(same effect as GENERA_DATA_DIR)"})
_QMAX = ("--qmax", {"type": _qmax, "default": 10,
                    "help": f"highest q-power kept, 0..{QMAX_CAP} (default 10)"})
_CHERN = ("--chern", {"required": True, "help": "Chern-number file or fixture name"})
_KMAX = ("--kmax", {"type": _positive, "required": True})
_FORMAT = ("--format", {"choices": ("json", "csv", "md"), "default": "json",
                        "help": "table output format (default json)"})

# The grammar. group -> (help, {subcommand: (help, handler, arguments)}), or
# (help, handler) for a group without subcommands. An argument is a flag or a
# positional's dest with its add_argument keywords.
_COMMANDS = {
    "jf": ("Jacobi form generators and checks", {
        "gen": ("print a ring generator as JSON", _cmd_jf_gen, (
            ("name", {"choices": ("a", "phi01", "phi032", "phi02", "phi04")}),
            _QMAX,
        )),
        "check": ("verify the elliptic transformation law", _cmd_jf_check, (
            ("file", {"help": "JSON file as written by 'jf gen' or 'genus compute'"}),
            ("--lambda", {"dest": "lam", "type": int, "default": 1}),
        )),
    }),
    "genus": ("elliptic genus from Chern numbers", {
        "compute": ("print the genus as JSON", _cmd_genus_compute, (
            _CHERN,
            ("--nvars", {"type": _nvars, "default": 1,
                         "help": f"elliptic variables, 1..{NVARS_CAP} (default 1)"}),
            _QMAX,
        )),
        "euler": ("print the Euler number", _cmd_genus_euler, (_CHERN,)),
    }),
    "divis": ("divisibility constants", {
        "table": ("print all four families for k = 1..kmax", _cmd_divis_table,
                  (_KMAX, _FORMAT)),
        "verify-clas": ("closed form vs gcd-of-basis oracle for d_clas",
                        _cmd_divis_verify_clas, (_KMAX, _FORMAT)),
        "verdict": ("does a divisibility constant allow an Euler number", _cmd_divis_verdict, (
            ("--structure", {"choices": ("SU", "Sp", "SO"), "required": True}),
            ("--k", {"type": _positive, "required": True}),
            ("--euler", {"type": int, "required": True}),
        )),
    }),
    "cells": ("cell complexes over coefficient tables", {
        "homotopy": ("homotopy of a cofiber in one degree", _cmd_cells_homotopy, (
            ("--complex", {"required": True, "help": "cell-complex file or name"}),
            ("--table", {"required": True, "help": "coefficient-table file or name"}),
            ("--deg", {"type": int, "required": True}),
        )),
        "order": ("order of an element of a table", _cmd_cells_order, (
            ("--table", {"required": True}),
            ("--element", {"required": True,
                           "help": "comma-separated terms, e.g. 'eta' or '8*nu'"}),
        )),
        "dsu-easy": ("cofiber-engine SU estimates vs the closed form", _cmd_cells_dsu_easy,
                     (_KMAX, _FORMAT)),
    }),
    "hk": ("hyperkahler Hodge-number systems", {
        "solve": ("match equations, derived relation, Euler divisor", _cmd_hk_solve, (
            ("--k", {"type": int, "choices": (2, 3), "required": True}),
        )),
    }),
    "selftest": ("run the full acceptance suite", _cmd_selftest),
}


def build_parser():
    """The argparse parser for _COMMANDS; main builds it only for help and usage errors."""
    import argparse

    p = argparse.ArgumentParser(
        prog="genera",
        description="Exact Jacobi-form series, elliptic genera, divisibility "
        "constants, cell-complex homotopy windows, and Hodge-number systems.",
    )
    p.add_argument(_DATA_DIR[0], **_DATA_DIR[1])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, commands) in _COMMANDS.items():
        group = sub.add_parser(name, help=help_)
        if callable(commands):
            group.set_defaults(func=commands)
            continue
        subs = group.add_subparsers(dest="subcommand", required=True)
        for sub_name, (sub_help, handler, arguments) in commands.items():
            cmd = subs.add_parser(sub_name, help=sub_help)
            for flag, kw in arguments:
                cmd.add_argument(flag, **kw)
            cmd.set_defaults(func=handler)
    return p


def _is_value(token: str) -> bool:
    # argparse takes a token that starts with "-" as an option string, except
    # "-<digits>" here, where no option looks like a negative number
    return not token.startswith("-") or token[1:].isdecimal()


def parse_table(argv):
    """argv parsed straight from _COMMANDS, or None where argparse must decide.

    Takes an optional leading --data-dir DIR, a group, its subcommand, and then
    positionals and --flag VALUE pairs with full flag names. Each value goes
    through the argument's type and choices once per occurrence, and the last
    occurrence of an option wins. Anything else (help, an abbreviated flag,
    --flag=value, --, a value that argparse would take for an option, a
    missing or extra token, a failed conversion or choice) returns None, and
    argparse parses it, or prints the help or usage error.
    """
    tokens = iter(argv)
    ns = {"data_dir": None}
    token = next(tokens, None)
    if token == _DATA_DIR[0]:
        token = next(tokens, None)
        if token is None or not _is_value(token):
            return None
        ns["data_dir"] = token
        token = next(tokens, None)
    if token not in _COMMANDS:
        return None
    ns["command"] = token
    commands = _COMMANDS[token][1]
    if callable(commands):
        handler, arguments = commands, ()
    else:
        token = next(tokens, None)
        if token not in commands:
            return None
        ns["subcommand"] = token
        handler, arguments = commands[token][1:]
    keywords = dict(arguments)
    positionals = [name for name in keywords if not name.startswith("-")]
    flags = [flag for flag in keywords if flag.startswith("-")]
    dest = {flag: kw.get("dest", flag.lstrip("-").replace("-", "_"))
            for flag, kw in keywords.items()}
    ns.update((dest[flag], keywords[flag].get("default")) for flag in flags)
    missing = {flag for flag in flags if keywords[flag].get("required")}
    for token in tokens:
        if token in flags:
            flag, text = token, next(tokens, None)
            missing.discard(flag)
        elif positionals:
            flag, text = positionals.pop(0), token
        else:
            return None
        if text is None or not _is_value(text):
            return None
        kw = keywords[flag]
        try:
            value = kw.get("type", str)(text)
        except Exception:  # argparse converts it again, and reports or raises it as always
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        ns[dest[flag]] = value
    if positionals or missing:
        return None
    return SimpleNamespace(**ns, func=handler)


def main(argv=None) -> int:
    if argv is None:
        # Run as the program, so the process ends with this request. Exit runs
        # full collections over every tracked object; the start-up heap (about
        # 11,700 objects, nearly all the interpreter's own) holds no garbage,
        # and frozen it is scanned neither there nor by the request's own
        # older-generation collections. Callers that pass argv keep their
        # collector as it is.
        gc.freeze()
        argv = sys.argv[1:]
    args = parse_table(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
