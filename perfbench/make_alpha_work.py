"""Regenerate alpha_work.json, the cost ranking that stratifies alpha-sweep.

For every pair (H, G) of the 89 graphs it records the work the valuation
sweep of `validates(mu_plus(H), alpha_rule(G))` did when the benchmark was
defined: valuations swept before the verdict (all n^k for a valid rule; for
an invalid one, up to the end of the 2^22-valuation chunk holding the least
countervaluation) times the number of connectives and atoms in the premise.
The ranking is frozen in the file, so the sample a seed draws is the same
on every version of the package.

Run from the repository root: python3 perfbench/make_alpha_work.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from demorgan_lab import bridge, matrix  # noqa: E402
from demorgan_lab.formula import And, Neg, Or  # noqa: E402

from workloads import ALPHA_TABLE, alpha_graphs  # noqa: E402

CHUNK = 1 << 22


def formula_size(f) -> int:
    if isinstance(f, (And, Or)):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, Neg):
        return 1 + formula_size(f.arg)
    return 1


def sweep_work(m, r) -> int:
    names = sorted(r.atom_names())
    n, k = m.n, len(names)
    lead, grid = 0, n ** k
    while grid > CHUNK:
        lead += 1
        grid = n ** (k - lead)
    witness = matrix.find_countervaluation(m, r)
    chunks = n ** lead
    if witness is not None:
        index = 0
        for name in names[:lead]:
            index = index * n + witness[name]
        chunks = index + 1
    size = sum(formula_size(f) for f in r.premises | r.conclusions)
    return chunks * grid * size


def main() -> None:
    graphs = alpha_graphs()
    mats = [bridge.mu_plus(g) for _, g in graphs]
    rules = [bridge.alpha_rule(g) for _, g in graphs]
    work = [[sweep_work(m, r) for r in rules] for m in mats]
    with open(ALPHA_TABLE, "w", encoding="utf-8") as fh:
        json.dump({"keys": [k for k, _ in graphs], "work": work}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
