"""The one cell format and the one writer behind every report.

A dict is one record and a list of dicts is a table whose columns are the
keys of its first row.  Text prints `key: value` lines, with a blank line
between rows; csv prints a header and one line per row; json prints a record
as an object with sorted keys and a table as an array in column order.
"""

from __future__ import annotations

import json


def fmt(value) -> str:
    """Report cell: 12 significant digits, lowercase booleans, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render(table: dict | list[dict], form: str) -> str:
    """A record or a table as text, csv or json, ending in a newline."""
    if form == "json":
        return json.dumps(table, indent=2, sort_keys=isinstance(table, dict)) + "\n"
    rows = [table] if isinstance(table, dict) else table
    if form == "csv":
        keys = list(rows[0])
        lines = [",".join(keys)] + [",".join(fmt(row[key]) for key in keys) for row in rows]
        return "\n".join(lines) + "\n"
    blocks = ("\n".join(f"{key}: {fmt(value)}" for key, value in row.items()) for row in rows)
    return "\n\n".join(blocks) + "\n"
