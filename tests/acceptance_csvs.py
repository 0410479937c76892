"""Write the CSVs of the eight acceptance producers, and island ``sweep``
CSVs of every registry detector, to a directory.

Usage: ``PYTHONPATH=src python tests/acceptance_csvs.py OUTDIR [NAME ...]``

With NAMEs (file names, such as ``sweep_fmst_40.csv``), only those files
are written; without, all 37.

The producers are the ``_produce_*`` functions of ``test_acceptance.py``,
run with the same seeds as the acceptance tests.  The sweeps run the CLI
on the island fixture (placement 6 7 10 12, ``--require-tau``, sigma 0.05,
0.2 and 0.5) for every detector in ``DETECTOR_NAMES``, with and without
``--local-search``, at 3 and 40 trials per cell.  The ``fmst`` sweeps run
again without ``--require-tau`` (``sweep_fmst*_notau_*.csv``): a feeder
serving no island then carries no flow, so a row's |flows| tie.

``detect_calls.txt`` holds one line per per-call result of ``detect_map``,
``detect_zero_flow_map``, ``detect_fmst``, ``detect_cycle_descent`` and
fmst + ``local_map_search``: the tree, ``float.hex`` of the
log-likelihood, ``iterations``, ``pruned`` and ``converged``, or the error
class.  The inputs are seeded island observations (placement 6 7 10 12,
the root edges required, sigma 0.2) and 3x3, 4x4 and 5x5 lattice snapshots
made by ``test_prune._snapshot``; every third reading set carries 1e-6
noise.  On the 4x4 and 5x5 lattices MAP and the zero-flow test search the
trees holding all but four edges of the true tree, as ``test_prune`` does;
the per-call walks on 5x5 number more trees than a bank first makes room
for.

Two checkouts can then be compared file by file with ``cmp``.  The file
name keeps it out of pytest collection.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from gridtree import (
    GridTreeError,
    Placement,
    build_island_fixture,
    detect_cycle_descent,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    hypothesis_flow,
    local_map_search,
)
from gridtree.cli import main as cli_main
from gridtree.detect import DETECTOR_NAMES
from gridtree.fileio import format_placement

import test_acceptance as acc
from conftest import lattice_graph
from test_prune import _snapshot


#: file name -> (detector, --local-search, trials per cell, --require-tau) of each sweep capture
SWEEPS = {
    f"sweep_{name}{'_local' if local else ''}{'' if tau else '_notau'}_{trials}.csv":
        (name, local, trials, tau)
    for name, tau in [(name, True) for name in DETECTOR_NAMES] + [("fmst", False)]
    for local in (False, True)
    for trials in (3, 40)
}


def _sweeps(out: Path, names) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        graph, loads, placement = (Path(tmp) / name for name in ("island.graph", "island.loads", "p.place"))
        cli_main(["fixture", "--out", str(graph), "--loads", str(loads)])
        placement.write_text(format_placement(Placement((6, 7, 10, 12))))
        for file in names:
            name, local, trials, tau = SWEEPS[file]
            rc = cli_main([
                "sweep", "--graph", str(graph), "--loads", str(loads),
                "--placement", str(placement), "--sigma-grid", "0.05,0.2,0.5",
                "--trials", str(trials), "--seed", "7", "--method", name, "--out", str(out / file),
                *(["--require-tau"] if tau else []), *(["--local-search"] if local else []),
            ])
            if rc != 0:
                raise SystemExit(f"sweep for {file} exited {rc}")
            print(f"wrote {out / file}")


def _calls(graph, pl, model, s, restriction, required) -> list[str]:
    """One line per detector: its result fields, or its error class."""

    def local():
        seed = detect_fmst(graph, pl, model, s, required).tree
        return local_map_search(graph, pl, model, s, seed, required_edges=required)

    detectors = {
        "map": lambda: detect_map(graph, pl, model, s, restriction),
        "zeroflow": lambda: detect_zero_flow_map(graph, pl, model, s, restriction),
        "fmst": lambda: detect_fmst(graph, pl, model, s, required),
        "cycledescent": lambda: detect_cycle_descent(graph, pl, model, s, required_edges=required),
        "fmst+local": local,
    }
    lines = []
    for name, detector in detectors.items():
        try:
            r = detector()
        except GridTreeError as exc:
            lines.append(f"{name},{type(exc).__name__}")
            continue
        fields = (r.tree.label(), float.hex(r.log_likelihood), r.iterations, r.pruned, r.converged)
        lines.append(",".join(map(str, (name, *fields))))
    return lines


def _detect_calls(island, trees) -> str:
    lines = []
    rng = np.random.default_rng(11)
    pl = Placement((6, 7, 10, 12))
    model = island.load_model.with_stddev(0.2)
    for k in range(30):
        true = trees[rng.integers(len(trees))]
        loads = model.means + 0.2 * rng.standard_normal(len(model.means))
        s = hypothesis_flow(island.graph, true, pl, loads)
        if k % 3 == 2:
            s = s + 1e-6 * rng.standard_normal(len(s))
        calls = _calls(island.graph, pl, model, s, island.tau, island.tau)
        lines += [f"island {k} {line}" for line in calls]
    for n, count in ((3, 30), (4, 12), (5, 6)):
        graph = lattice_graph(n)
        rng = np.random.default_rng(50 + n)
        for k in range(count):
            pl, model, s, true = _snapshot(graph, rng)
            if k % 3 == 2:
                s = s + 1e-6 * rng.standard_normal(len(s))
            restriction = frozenset() if n == 3 else frozenset(sorted(true.edge_ids)[4:])
            calls = _calls(graph, pl, model, s, restriction, ())
            lines += [f"lattice{n} {k} {line}" for line in calls]
    return "".join(line + "\n" for line in lines)


def main(argv: list[str]) -> int:
    island = build_island_fixture()
    trees = list(enumerate_spanning_trees(island.graph, island.tau))
    family = enumerate_valid_placements(island.graph, island.tau)
    producers = {
        "crit4.csv": lambda: acc._produce_crit4(island, trees, family),
        "crit5.csv": lambda: acc._produce_crit5(island, trees),
        "crit6.csv": lambda: acc._produce_crit6(island, family),
        "crit7_map.csv": lambda: acc._produce_crit7_map(island),
        "crit7_agree.csv": lambda: acc._produce_crit7_agree(island, trees),
        "crit7_cmp.csv": lambda: acc._produce_crit7_cmp(island),
        "crit7_local.csv": lambda: acc._produce_crit7_local(island),
        "crit8.csv": lambda: acc._produce_crit8(island, family),
        "detect_calls.txt": lambda: _detect_calls(island, trees),
    }
    unknown = [name for name in argv[1:] if name not in producers and name not in SWEEPS]
    if not argv or unknown:
        print("usage: acceptance_csvs.py OUTDIR [NAME ...]", file=sys.stderr)
        if unknown:
            print(f"unknown names: {' '.join(unknown)}", file=sys.stderr)
        return 2
    out, names = Path(argv[0]), set(argv[1:]) or {*producers, *SWEEPS}
    out.mkdir(parents=True, exist_ok=True)
    for name, producer in producers.items():
        if name in names:
            (out / name).write_text(producer())
            print(f"wrote {out / name}")
    _sweeps(out, [name for name in SWEEPS if name in names])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
