"""Locate bundled data files by short name, honoring GENERA_DATA_DIR."""

from __future__ import annotations

import os

_PACKAGE_DATA = os.path.join(os.path.dirname(__file__), "data")


def resolve_data(name: str | os.PathLike) -> str:
    """Resolve a bundled data name or a literal path to a readable file path.

    Anything containing a path separator or a .json suffix is treated as a
    literal path; bare names look in GENERA_DATA_DIR first, then in the
    packaged data directory.
    """
    name = os.fspath(name)
    if os.path.sep in name or name.endswith(".json"):
        if not os.path.isfile(name):
            raise FileNotFoundError(f"no such data file: {name}")
        return name
    fname = name + ".json"
    override = os.environ.get("GENERA_DATA_DIR")
    if override:
        cand = os.path.join(override, fname)
        if os.path.isfile(cand):
            return cand
    cand = os.path.join(_PACKAGE_DATA, fname)
    if os.path.isfile(cand):
        return cand
    raise FileNotFoundError(f"unknown bundled data name: {name!r}")
