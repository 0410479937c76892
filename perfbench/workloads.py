"""The three benchmark workloads: timed bodies and their correctness checks.

A workload is run as a sequence of *units*.  Unit ``i`` is fully determined
by (seed, i); the first ``base_units`` always run, and their misses define
``miss_rate``, so that figure is exact for a fixed seed.  Further units only
add timing samples.  Every timed operation is one call into the package's
public API (``cli.main`` or a library function) from this single process.
Checks run after the timed loop and are never timed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gridtree as gt
from gridtree import cli, fileio
from gridtree.errors import GridTreeError

from . import inputs

DETECTORS = ("map", "fmst", "descent", "local")

#: Sweep/ranking detector label of each benchmark detector, as written in the CSVs.
CSV_LABEL = {"map": "map", "fmst": "fmst", "descent": "cycledescent", "local": "fmst+local"}


@dataclass(frozen=True)
class Call:
    """One timed public call: which detector, how long, how many detections."""

    detector: str
    seconds: float
    detections: int
    misses: int
    ok: bool


class Workload:
    name = ""
    base_units = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.tracer = None  # set while a traced pass runs; each call gets its own run id

    def call(self, fn, *args, **kwargs):
        """(result, seconds) of one timed call; result is None if it raised."""
        if self.tracer is not None:
            self.tracer.new_run()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the run goes on; the failure is counted against ok_share
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return None, seconds
        return result, time.perf_counter() - start

    def unit(self, index: int) -> list[Call]:
        raise NotImplementedError

    def check(self) -> tuple[int, list[str]]:
        """(items checked, problems found) over what the units produced."""
        raise NotImplementedError


# -- shared checks ---------------------------------------------------------------


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rederive_misses(graph, placement, model, seed, cell, trees, trials, detector, restriction):
    """Misses of one sweep cell, recomputed through the per-call public detectors.

    Uses the reproducibility contract of ``gridtree.simulate``: the loads of
    cell (p, s, t) are drawn from ``default_rng((seed, p, s, t))``, and the
    readings are those loads pushed through the true tree's observation
    matrix.  ``model`` is the cell's noise model.
    """
    p_idx, s_idx, t_idx = cell
    rng = np.random.default_rng((seed, p_idx, s_idx, t_idx))
    sd = model.stddevs
    loads = model.means + sd * rng.standard_normal((trials, len(sd)))
    true_tree = trees[t_idx]
    readings = loads @ gt.observation_matrix(graph, true_tree, placement).T
    cache = gt.HypothesisCache(graph, placement, model)
    misses = 0
    for obs in readings:
        try:
            if detector == "map":
                tree = gt.detect_map(graph, placement, model, obs, restriction, cache=cache).tree
            elif detector == "fmst":
                tree = gt.detect_fmst(graph, placement, model, obs, required_edges=restriction).tree
            elif detector == "descent":
                tree = gt.detect_cycle_descent(
                    graph, placement, model, obs, cache=cache, required_edges=restriction
                ).tree
            else:
                start = gt.detect_fmst(graph, placement, model, obs, required_edges=restriction).tree
                tree = gt.local_map_search(
                    graph, placement, model, obs, start, cache=cache, required_edges=restriction
                ).tree
        except GridTreeError:  # the sweep folds detector errors into misses too
            tree = None
        misses += tree != true_tree
    return misses


def _check_sweep_rows(rows, detector, placements, sigmas, trees, trials) -> list[str]:
    """Row count, order, labels and miss bounds of a sweep report."""
    problems = []
    want = len(placements) * len(sigmas) * len(trees)
    if len(rows) != want:
        return [f"{detector}: {len(rows)} sweep rows, expected {want}"]
    k = 0
    for pl in placements:
        for sigma in sigmas:
            for tree in trees:
                r = rows[k]
                k += 1
                misses, n = int(r["misses"]), int(r["trials"])
                if (
                    r["placement"] != pl.label()
                    or r["detector"] != CSV_LABEL[detector]
                    or float(r["sigma"]) != sigma
                    or r["true_tree"] != tree.label()
                    or n != trials
                    or not 0 <= misses <= n
                ):
                    problems.append(f"{detector}: bad sweep row {k}: {r}")
    return problems


def _check_ranking(name, ranking_rows, report_rows, placements, trees) -> list[str]:
    """Ranks are 1..n, g1 falls, g2 >= g1, and both match the per-tree report."""
    problems = []
    n = len(placements)
    ranks = [int(r["rank"]) for r in ranking_rows]
    if sorted(ranks) != list(range(1, n + 1)):
        problems.append(f"{name}: ranks are not a permutation of 1..{n}")
    g1 = [float(r["g1"]) for r in ranking_rows]
    g2 = [float(r["g2"]) for r in ranking_rows]
    if any(a < b for a, b in zip(g1, g1[1:])):
        problems.append(f"{name}: g1 is not non-increasing")
    if any(b < a for a, b in zip(g1, g2)):
        problems.append(f"{name}: g2 < g1")
    rates: dict[str, list[float]] = {}
    for r in report_rows:
        rates.setdefault(r["placement"], []).append(int(r["misses"]) / int(r["trials"]))
    if sorted(rates) != sorted(p.label() for p in placements) or any(
        len(v) != len(trees) for v in rates.values()
    ):
        problems.append(f"{name}: report does not cover every (placement, tree) cell")
        return problems
    for r, a, b in zip(ranking_rows, g1, g2):
        v = rates.get(r["placement"], [])
        if not math.isclose(a, float(np.mean(v)), rel_tol=1e-9, abs_tol=1e-12) or not math.isclose(
            b, float(np.max(v)), rel_tol=1e-9, abs_tol=1e-12
        ):
            problems.append(f"{name}: g1/g2 of {r['placement']} disagree with the report")
    return problems


def _slice_tree(index, sigma, detector, n_trees) -> int:
    """True-tree index of the one cell re-derived for a kept call (fixed, spread out)."""
    return (7 * index + round(10 * sigma) + 11 * DETECTORS.index(detector)) % n_trees


def _rows(records) -> list[dict]:
    """Report or ranking records as dicts keyed like their CSV columns.

    Read from the dataclasses, not through ``to_csv``, which the tracer wraps.
    """
    return [dataclasses.asdict(r) for r in records]


# -- island_sweep ------------------------------------------------------------------


class IslandSweep(Workload):
    """CLI sweeps on the island fixture: many trials per Gaussian built.

    A unit is one CLI ``sweep`` per (sigma, detector), all with the unit's
    seed.  MAP runs 1000 trials per (sigma, true tree) cell, as acceptance
    criterion 7 does; the approximate detectors, which score one trial at a
    time in Python, run the first 2 of the same draws (the draws of a cell
    are one seeded stream, so a shorter run sees a prefix of a longer one).
    """

    name = "island_sweep"
    base_units = 2
    SIGMAS = (0.05, 0.2, 0.5)
    RUNS = (  # (detector, --method, extra flags, trials per cell)
        ("map", "map", (), 1000),
        ("fmst", "fmst", (), 2),
        ("descent", "cycledescent", (), 2),
        ("local", "fmst", ("--local-search",), 2),
    )

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.fx = gt.build_island_fixture()
        self.files = inputs.write_island_files(workdir)
        self.trees = list(gt.enumerate_spanning_trees(self.fx.graph, self.fx.tau))
        self.kept: dict[tuple[int, float, str], list[dict[str, str]]] = {}

    def unit(self, index):
        seed = inputs.round_seed(self.seed, index)
        f = self.files
        out = os.path.join(self.workdir, "sweep.csv")
        calls = []
        for sigma in self.SIGMAS:
            for det, method, extra, trials in self.RUNS:
                if os.path.exists(out):
                    os.remove(out)
                argv = [
                    "sweep", "--graph", f["graph"], "--loads", f["loads"],
                    "--placement", f["placement"], "--sigma", str(sigma), "--trials", str(trials),
                    "--seed", str(seed), "--method", method, "--require-tau", "--out", out, *extra,
                ]
                rc, seconds = self.call(cli.main, argv)
                planned = len(self.trees) * trials
                if rc == 0:
                    rows = _read_csv(out)
                    misses = sum(int(r["misses"]) for r in rows)
                else:
                    rows, misses = [], planned
                calls.append(Call(det, seconds, planned, misses, rc == 0))
                if index < self.base_units:
                    self.kept[(index, sigma, det)] = rows
        return calls

    def check(self):
        graph, tau = self.fx.graph, self.fx.tau
        model = fileio.read_loads(self.files["loads"])
        placement = inputs.ISLAND_PLACEMENT
        trials_of = {r[0]: r[3] for r in self.RUNS}
        items, problems = 0, []
        for (index, sigma, det), rows in sorted(self.kept.items()):
            trials = trials_of[det]
            items += 1
            problems += _check_sweep_rows(rows, det, [placement], (sigma,), self.trees, trials)
            if len(rows) != len(self.trees):
                continue
            items += 1
            t_idx = _slice_tree(index, sigma, det, len(self.trees))
            got = int(rows[t_idx]["misses"])
            want = rederive_misses(
                graph, placement, model.with_stddev(sigma), inputs.round_seed(self.seed, index),
                (0, 0, t_idx), self.trees, trials, det, tau,
            )
            if got != want:
                problems.append(
                    f"{det} unit {index} cell (sigma={sigma}, tree {t_idx}): "
                    f"sweep counted {got} misses, per-call detectors {want}"
                )
        return items, problems


# -- placement_rank ------------------------------------------------------------------


class PlacementRank(Workload):
    """Placement scoring on the island: few trials per Gaussian built.

    Unit ``i`` scores placement ``i mod 44`` of the 44 minimal valid
    placements, in enumeration order.  The MAP call does what ``gridtree
    rank-placements`` does for one placement: enumerate the family, then
    ``evaluate_placements`` on it, with 200
    trials per (placement, tree) cell, so building the 44 Gaussians of a
    cell costs far more than scoring its trials, and the approximate
    detectors with 2.  fmst + local search has no ranking entry point and
    runs as the ranking's underlying sweep.
    """

    name = "placement_rank"
    base_units = 30
    CV = 6.5
    RUNS = (("map", "map", 200), ("fmst", "fmst", 2), ("descent", "cycledescent", 2), ("local", "fmst", 2))

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.fx = gt.build_island_fixture()
        self.files = inputs.write_island_files(workdir, inputs.RANKING_MEANS)
        self.model = fileio.read_loads(self.files["loads"])
        self.trees = list(gt.enumerate_spanning_trees(self.fx.graph, self.fx.tau))
        self.kept: dict[tuple[int, str], tuple] = {}

    @staticmethod
    def _score_placement(graph, tau, model, index, **kwargs):
        family = gt.enumerate_valid_placements(graph, tau)
        one = gt.PlacementFamily((family.placements[index % len(family)],), tau)
        return one, gt.evaluate_placements(graph, one, model, **kwargs)

    def unit(self, index):
        seed = inputs.round_seed(self.seed, index)
        graph, tau = self.fx.graph, self.fx.tau
        family = None
        calls = []
        for det, method, trials in self.RUNS:
            common = dict(trials=trials, seed=seed, restriction=tau, sigma_mode="cv")
            if det == "map":
                result, seconds = self.call(
                    self._score_placement, graph, tau, self.model, index, sigma=self.CV,
                    detector=method, **common,
                )
                if result is None:  # the placement is needed by every later call
                    return [Call(d, 0.0, 1, 1, False) for d, _, _ in self.RUNS]
                family, (ranking, report) = result
            elif det == "local":
                config = gt.ExperimentConfig(
                    graph=graph, load_model=self.model, placements=family.placements,
                    sigmas=(self.CV,), detectors=(method,), local_search=True, **common,
                )
                result, seconds = self.call(gt.run_stochastic_sweep, config)
                ranking, report = None, result
            else:
                result, seconds = self.call(
                    gt.evaluate_placements, graph, family, self.model, sigma=self.CV,
                    detector=method, **common,
                )
                ranking, report = result if result is not None else (None, None)
            planned = len(self.trees) * trials
            if result is None:
                calls.append(Call(det, seconds, planned, planned, False))
                continue
            rows = _rows(report.rows)
            calls.append(Call(det, seconds, planned, sum(int(r["misses"]) for r in rows), True))
            if index < self.base_units:
                self.kept[(index, det)] = (family, ranking and _rows(ranking.scores), rows)
        return calls

    def check(self):
        graph, tau = self.fx.graph, self.fx.tau
        noise = self.model.with_cv(self.CV)
        trials_of = {r[0]: r[2] for r in self.RUNS}
        placements = gt.enumerate_valid_placements(graph, tau).placements
        items, problems = 0, []
        for (index, det), (family, ranking, report) in sorted(self.kept.items()):
            trials = trials_of[det]
            items += 2
            if len(placements) != 44 or family.placements != (placements[index % 44],):
                problems.append(f"{det} unit {index}: scored {family.placements}, not placement {index % 44}")
            problems += _check_sweep_rows(report, det, family.placements, (self.CV,), self.trees, trials)
            if ranking is not None:
                items += 1
                problems += _check_ranking(det, ranking, report, family.placements, self.trees)
            if len(report) != len(self.trees):
                continue
            items += 1
            t_idx = _slice_tree(index, self.CV, det, len(self.trees))
            got = int(report[t_idx]["misses"])
            want = rederive_misses(
                graph, family.placements[0], noise, inputs.round_seed(self.seed, index),
                (0, 0, t_idx), self.trees, trials, det, tau,
            )
            if got != want:
                problems.append(
                    f"{det} unit {index} cell (tree {t_idx}): "
                    f"ranking sweep counted {got} misses, per-call detectors {want}"
                )
        return items, problems


# -- grid_detect --------------------------------------------------------------------


def _detect(det, snap):
    g, pl, model, obs = snap.graph, snap.placement, snap.model, snap.observation
    if det == "map":
        return gt.detect_map(g, pl, model, obs)
    if det == "descent":
        return gt.detect_cycle_descent(g, pl, model, obs)
    if det == "fmst":
        return gt.detect_fmst(g, pl, model, obs)
    return gt.local_map_search(g, pl, model, obs, gt.detect_fmst(g, pl, model, obs).tree)


class GridDetect(Workload):
    """Cold single-snapshot detections on lattice feeders, one new call each.

    Each unit is a block of fresh snapshots (new placement, forecast, true
    tree and loads each): one MAP detection on the 3x3 lattice (192 trees,
    enumerated per call), one cycle-descent detection and four fmst + local
    search detections and sixteen fmst detections on the 4x4 lattice
    (100,352 trees, never enumerated).  Nothing is shared between calls.
    """

    name = "grid_detect"
    base_units = 120
    SIGMA = 0.2
    BLOCK = (("map", 3, 1), ("descent", 4, 1), ("local", 4, 4), ("fmst", 4, 16))
    ZERO_FLOW_EVERY = 10  # base blocks whose MAP answer is cross-checked by the zero-flow test

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.lattices = {n: inputs.checked_lattice(n) for n in inputs.LATTICE_TREES}
        # results per block; the snapshots are regenerated from (seed, block) for the checks,
        # so memory does not grow with the number of blocks a run reaches
        self.done: dict[int, list] = {}

    def _block(self, index):
        """(detector, snapshot) pairs of block ``index``, in call order."""
        rng = np.random.default_rng((self.seed, index))
        for det, n, count in self.BLOCK:
            for _ in range(count):
                yield det, inputs.lattice_snapshot(self.lattices[n], rng, self.SIGMA)

    def unit(self, index):
        calls, results = [], []
        for det, snap in self._block(index):
            result, seconds = self.call(_detect, det, snap)
            ok = result is not None
            calls.append(Call(det, seconds, 1, int(not ok or result.tree != snap.true_tree), ok))
            results.append(result)
        self.done[index] = results
        return calls

    def check(self):
        items, problems = 0, []
        for index, results in sorted(self.done.items()):
            for (det, snap), result in zip(self._block(index), results):
                if result is None:  # already counted as a failed call
                    continue
                g, pl, model, obs = snap.graph, snap.placement, snap.model, snap.observation
                items += 2
                if not gt.is_spanning_tree(g, result.tree.edge_ids):
                    problems.append(f"{det} block {index}: result is not a spanning tree")
                    continue
                fresh = gt.log_likelihood(g, result.tree, pl, model, obs)
                if fresh != result.log_likelihood:
                    problems.append(
                        f"{det} block {index}: reported log-likelihood {result.log_likelihood!r}, "
                        f"fresh {fresh!r}"
                    )
                if det == "map":
                    items += 1
                    if result.log_likelihood < gt.log_likelihood(g, snap.true_tree, pl, model, obs):
                        problems.append(f"map block {index}: true tree is more likely than the answer")
                    if index < self.base_units and index % self.ZERO_FLOW_EVERY == 0:
                        items += 1
                        if gt.detect_zero_flow_map(g, pl, model, obs).tree != result.tree:
                            problems.append(f"map block {index}: zero-flow test disagrees with MAP")
                elif det == "descent":
                    items += 1
                    start = gt.feasible_tree(g, obs, pl)
                    if result.log_likelihood < gt.log_likelihood(g, start, pl, model, obs):
                        problems.append(f"descent block {index}: ended below its feasible start")
        return items, problems


WORKLOADS = {w.name: w for w in (IslandSweep, PlacementRank, GridDetect)}
