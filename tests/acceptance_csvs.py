"""Write the CSVs of the eight acceptance producers to a directory.

Usage: ``PYTHONPATH=src python tests/acceptance_csvs.py OUTDIR``

The producers are the ``_produce_*`` functions of ``test_acceptance.py``,
run with the same seeds as the acceptance tests, so two checkouts can be
compared file by file with ``cmp``.  The file name keeps it out of pytest
collection.
"""

import sys
from pathlib import Path

from gridtree import build_island_fixture, enumerate_spanning_trees, enumerate_valid_placements

import test_acceptance as acc


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: acceptance_csvs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    island = build_island_fixture()
    trees = list(enumerate_spanning_trees(island.graph, island.tau))
    family = enumerate_valid_placements(island.graph, island.tau)
    producers = {
        "crit4": lambda: acc._produce_crit4(island, trees, family),
        "crit5": lambda: acc._produce_crit5(island, trees),
        "crit6": lambda: acc._produce_crit6(island, family),
        "crit7_map": lambda: acc._produce_crit7_map(island),
        "crit7_agree": lambda: acc._produce_crit7_agree(island, trees),
        "crit7_cmp": lambda: acc._produce_crit7_cmp(island),
        "crit7_local": lambda: acc._produce_crit7_local(island),
        "crit8": lambda: acc._produce_crit8(island, family),
    }
    for name, producer in producers.items():
        (out / f"{name}.csv").write_text(producer())
        print(f"wrote {out / name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
