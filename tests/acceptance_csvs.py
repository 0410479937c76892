"""Write the CSVs of the eight acceptance producers, and island ``sweep``
CSVs of every registry detector, to a directory.

Usage: ``PYTHONPATH=src python tests/acceptance_csvs.py OUTDIR``

The producers are the ``_produce_*`` functions of ``test_acceptance.py``,
run with the same seeds as the acceptance tests.  The sweeps run the CLI
on the island fixture (placement 6 7 10 12, ``--require-tau``, sigma 0.05,
0.2 and 0.5) for every detector in ``DETECTOR_NAMES``, with and without
``--local-search``, at 3 and 40 trials per cell: below and above the
batch size at which scoring switches from Python floats to numpy columns.
Two checkouts can then be compared file by file with ``cmp``.  The file
name keeps it out of pytest collection.
"""

import sys
import tempfile
from pathlib import Path

from gridtree import (
    Placement,
    build_island_fixture,
    enumerate_spanning_trees,
    enumerate_valid_placements,
)
from gridtree.cli import main as cli_main
from gridtree.detect import DETECTOR_NAMES
from gridtree.fileio import format_placement

import test_acceptance as acc


def _sweeps(out: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        graph, loads, placement = (Path(tmp) / name for name in ("island.graph", "island.loads", "p.place"))
        cli_main(["fixture", "--out", str(graph), "--loads", str(loads)])
        placement.write_text(format_placement(Placement((6, 7, 10, 12))))
        for name in DETECTOR_NAMES:
            for local in (False, True):
                for trials in (3, 40):
                    path = out / f"sweep_{name}{'_local' if local else ''}_{trials}.csv"
                    rc = cli_main([
                        "sweep", "--graph", str(graph), "--loads", str(loads),
                        "--placement", str(placement), "--sigma-grid", "0.05,0.2,0.5",
                        "--trials", str(trials), "--seed", "7", "--method", name,
                        "--require-tau", "--out", str(path), *(["--local-search"] if local else []),
                    ])
                    if rc != 0:
                        raise SystemExit(f"sweep for {path.name} exited {rc}")
                    print(f"wrote {path}")


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
    _sweeps(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
