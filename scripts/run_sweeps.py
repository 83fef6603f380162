#!/usr/bin/env python3
"""Regenerate the standard report CSVs and witness summaries.

Writes, under the output directory (default ./out):
  spectra_n{16,20,24}.csv   exact ball eigenvalues vs the 2 sqrt(r(n-r)) term
  bounds_n16.csv            bound landscape over k = 1..8 at n = 16
  witnesses.txt             analysis + chain reports for the Hamming witnesses
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kwisent.balls import lambda_ball
from kwisent.bounds import bound_row, evaluate
from kwisent.codes import hamming_code, parity_sampler_space
from kwisent.smoothing import halfwise_chain, smoothing_chain
from kwisent.table import render


def spectra_csv(n: int) -> str:
    return render([lambda_ball(n, r).as_dict() for r in range(1, n)], "csv")


def bounds_csv(n: int, k_max: int) -> str:
    return render([bound_row(n, k) for k in range(1, k_max + 1)], "csv")


def witness_report() -> str:
    blocks = []
    for m in (2, 3, 4):
        space = parity_sampler_space(hamming_code(m))
        n = space.n
        blocks.append(f"=== Hamming witness, n={n} ===")
        blocks.append(render(evaluate(space), "text"))
        blocks.append(halfwise_chain(space).to_text())
        if n >= 7:
            blocks.append(smoothing_chain(space, min(3, n // 2)).to_text())
    return "\n".join(blocks)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default ./out)")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for n in (16, 20, 24):
        path = outdir / f"spectra_n{n}.csv"
        path.write_text(spectra_csv(n))
        print(f"wrote {path}")
    path = outdir / "bounds_n16.csv"
    path.write_text(bounds_csv(16, 8))
    print(f"wrote {path}")
    path = outdir / "witnesses.txt"
    path.write_text(witness_report())
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
