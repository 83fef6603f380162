"""Compare one op's outcome with its reference outcome.

The reference outcomes are those of the seed commit's ``kwisent``, frozen in
``seedref/``.  An op fails when it timed out, raised an uncaught exception
(even though the CLI then exits 1, the same code as a failed certified
check), exited with a different code, or printed something that disagrees:

- text is split into cells (CSV cells, or whitespace- and '='-separated
  words); cells that are integers (n, k, r, radius, order, support, ...)
  and words (PASS/FAIL, names) must match exactly;
- other numbers must agree within FLOAT_RTOL relative to
  max(1, |a|, |b|).  The CLI prints 12 significant digits; the eigenvector
  from the power iteration is accurate to about its 1e-9 residual
  tolerance, so a change of eigen-solver moves printed quantities by
  about 1e-9 relative to their scale, and 1e-6 leaves room for that while
  any logic error moves them by far more;
- the solver diagnostics ``iterations`` and ``residual`` of
  ``sweep spectra`` are not results and are left out;
- a space file written by ``construct`` must hold the same header and the
  same points in the same order, with probabilities within the float rule.
"""

from __future__ import annotations

import hashlib
import math
import re

FLOAT_RTOL = 1e-6
DIAGNOSTIC_COLUMNS = ("iterations", "residual")
_INT = re.compile(r"-?\d+")


def space_file_summary(path: str) -> dict:
    """Header, a digest of the point column, and min/max/sum of the probabilities."""
    with open(path) as handle:
        header = handle.readline().strip()
        digest = hashlib.sha256()
        lo, hi, total, count = math.inf, -math.inf, 0.0, 0
        for line in handle:
            bits, prob_text = line.split()
            digest.update(bits.encode() + b"\n")
            prob = float(prob_text)
            lo, hi, total, count = min(lo, prob), max(hi, prob), total + prob, count + 1
    return {"header": header, "points": digest.hexdigest(), "count": count, "probs": [lo, hi, total]}


def _is_csv(args: list[str]) -> bool:
    return args[:2] == ["sweep", "spectra"] or "csv" in args


def cells(text: str, csv: bool) -> list[list[str]]:
    if not csv:
        return [re.split(r"[\s=]+", line.strip()) for line in text.splitlines()]
    table = [line.split(",") for line in text.splitlines()]
    if not table:
        return table
    keep = [i for i, name in enumerate(table[0]) if name not in DIAGNOSTIC_COLUMNS]
    return [[row[i] for i in keep if i < len(row)] for row in table]


def cell_matches(ref: str, got: str) -> bool:
    if ref == got:
        return True
    if _INT.fullmatch(ref) and _INT.fullmatch(got):
        return False
    try:
        return floats_match(float(ref), float(got))
    except ValueError:
        return False


def floats_match(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(1.0, abs(a), abs(b))


def text_mismatch(ref: str, got: str, csv: bool) -> str | None:
    """First disagreeing cell of two outputs, or None when they agree."""
    ref_rows, got_rows = cells(ref, csv), cells(got, csv)
    if len(ref_rows) != len(got_rows):
        return f"{len(got_rows)} lines, expected {len(ref_rows)}"
    for lineno, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows), start=1):
        if len(ref_row) != len(got_row):
            return f"line {lineno}: {len(got_row)} cells, expected {len(ref_row)}"
        for a, b in zip(ref_row, got_row):
            if not cell_matches(a, b):
                return f"line {lineno}: {b!r}, expected {a!r}"
    return None


def mismatch(args: list[str], ref: dict, got: dict) -> str | None:
    """Why an outcome fails against its reference, or None when it passes."""
    if got["error"]:
        return got["error"]
    if ref["error"]:
        return f"reference outcome is an error: {ref['error']}"
    if got["exit"] != ref["exit"]:
        return f"exit code {got['exit']}, expected {ref['exit']}"
    csv = _is_csv(args)
    for stream in ("stdout", "stderr"):
        why = text_mismatch(ref[stream], got[stream], csv and stream == "stdout")
        if why:
            return f"{stream} {why}"
    if (ref["file"] is None) != (got["file"] is None):
        return "output file presence differs"
    if ref["file"] is not None:
        a, b = ref["file"], got["file"]
        if (a["header"], a["points"], a["count"]) != (b["header"], b["points"], b["count"]):
            return "output file points differ"
        if not all(floats_match(x, y) for x, y in zip(a["probs"], b["probs"])):
            return "output file probabilities differ"
    return None
