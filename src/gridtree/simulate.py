"""Monte Carlo experiment harness: deterministic error rates, missed-detection
sweeps over noise levels, and placement ranking by mean/max error.

Unit of work: one (placement, sigma) group.  A group builds one
HypothesisCache and one HypothesisBank over it, shares them across all its
true-tree cells and detectors, and drops them when the group ends.  With
several workers, the pool is handed groups; only when there are fewer
groups than workers is each group split into contiguous runs of true trees,
one cache and bank per run.

The bank scores each cell once.  Runs of consecutive cells are loaded into
it together, one row per trial, up to ``_LOAD_ROWS`` rows, so a load holds
at most max(trials, _LOAD_ROWS) x hypotheses scores.  A hypothesis's score
column is filled on first use, and only for the rows whose sensor support
it holds; the others are -inf, which ``detect._sensor_support`` shows is
exact.  Every detector runs as its batch form over the loaded rows
(``detect.DETECTOR_BATCHES``), as does the local search, and every miss
count equals the one the per-call detectors give.

Reproducibility contract: every random draw comes from a generator seeded by
(base seed, placement index, sigma index, tree index), so results are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .detect import DETECTOR_NAMES, HypothesisBank, HypothesisCache
from .errors import ModelError
from .flows import LoadModel, observation_matrix
from .graph import Graph, enumerate_spanning_trees
from .placement import Placement, PlacementFamily, _collision_fraction, _readings


def _csv_text(header: list, rows: Iterable[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write_csv(report, path) -> None:
    """``report.to_csv()`` written to ``path``; shared as each report's ``write_csv``."""
    with open(path, "w", newline="") as fh:
        fh.write(report.to_csv())


def _check_count(value, name: str, least: int) -> None:
    """ModelError unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer")
    if value < least:
        raise ModelError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One stochastic sweep: placements x sigma grid x hypothesis trees x trials."""

    graph: Graph
    load_model: LoadModel
    placements: tuple[Placement, ...]
    sigmas: tuple[float, ...]
    trials: int
    detectors: tuple[str, ...] = ("map",)
    seed: int = 0
    restriction: frozenset[int] = frozenset()
    #: "absolute": sigma is a stddev applied to every node; "cv": sigma is a
    #: percent of each node's mean; "model": keep the load model's own
    #: variances (sigma only labels the output rows).
    sigma_mode: str = "absolute"
    local_search: bool = False  # post-process each detector with the basis-neighborhood search

    def __post_init__(self):
        _check_count(self.trials, "trials", 1)
        _check_count(self.seed, "seed", 0)
        if not all(0 <= s < float("inf") for s in self.sigmas):
            raise ModelError("sigma values must be finite and >= 0")
        if self.sigma_mode not in ("absolute", "cv", "model"):
            raise ModelError(f"unknown sigma mode {self.sigma_mode!r}")
        for d in self.detectors:
            if d not in DETECTOR_NAMES:
                raise ModelError(f"unknown detector {d!r}")

    def noise_model(self, sigma: float) -> LoadModel:
        if self.sigma_mode == "cv":
            return self.load_model.with_cv(sigma)
        if self.sigma_mode == "model":
            return self.load_model
        return self.load_model.with_stddev(sigma)


@dataclass(frozen=True)
class SweepRow:
    placement: str
    detector: str
    sigma: float
    true_tree: str
    trials: int
    misses: int

    @property
    def rate(self) -> float:
        return self.misses / self.trials

    @property
    def stderr(self) -> float:
        p = self.rate
        return float(np.sqrt(p * (1.0 - p) / self.trials))


@dataclass
class ErrorReport:
    rows: list[SweepRow] = field(default_factory=list)

    def filtered(self, placement=None, detector=None, sigma=None) -> list[SweepRow]:
        return [
            r for r in self.rows
            if (placement is None or r.placement == placement)
            and (detector is None or r.detector == detector)
            and (sigma is None or r.sigma == sigma)
        ]

    def _selected(self, placement, detector, sigma) -> list[SweepRow]:
        """``filtered``'s rows; ModelError, naming the filter, if there is none."""
        rows = self.filtered(placement, detector, sigma)
        if not rows:
            raise ModelError(f"no row for placement={placement!r}, detector={detector!r}, sigma={sigma!r}")
        return rows

    def rate(self, placement=None, detector=None, sigma=None) -> float:
        rows = self._selected(placement, detector, sigma)
        return sum(r.misses for r in rows) / sum(r.trials for r in rows)

    def stderr(self, placement=None, detector=None, sigma=None) -> float:
        p = self.rate(placement, detector, sigma)
        trials = sum(r.trials for r in self.filtered(placement, detector, sigma))
        return float(np.sqrt(p * (1.0 - p) / trials))

    def g1(self, placement=None, detector=None, sigma=None) -> float:
        """Mean missed-detection rate over hypothesis trees (uniform prior)."""
        return float(np.mean([r.rate for r in self._selected(placement, detector, sigma)]))

    def g2(self, placement=None, detector=None, sigma=None) -> float:
        """Worst missed-detection rate over hypothesis trees."""
        return float(np.max([r.rate for r in self._selected(placement, detector, sigma)]))

    def to_csv(self) -> str:
        return _csv_text(
            ["placement", "detector", "sigma", "true_tree", "trials", "misses", "rate", "stderr"],
            (
                [
                    r.placement,
                    r.detector,
                    f"{r.sigma:.12g}",
                    r.true_tree,
                    r.trials,
                    r.misses,
                    f"{r.rate:.12g}",
                    f"{r.stderr:.12g}",
                ]
                for r in self.rows
            ),
        )

    write_csv = _write_csv


# -- deterministic sweep -------------------------------------------------------


@dataclass(frozen=True)
class DeterministicRow:
    placement: str
    n_trees: int
    eps: float  # fraction of ordered tree pairs with identical signed readings
    eps_unsigned: float  # same with magnitude-only readings


@dataclass
class DeterministicReport:
    rows: list[DeterministicRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return _csv_text(
            ["placement", "n_trees", "eps", "eps_unsigned"],
            (
                [r.placement, r.n_trees, f"{r.eps:.12g}", f"{r.eps_unsigned:.12g}"]
                for r in self.rows
            ),
        )

    write_csv = _write_csv


def run_deterministic_sweep(
    graph: Graph,
    placements: Iterable[Placement],
    loads: Sequence[float],
    restriction: Iterable[int] = (),
) -> DeterministicReport:
    """Exact-load distinguishability of every tree pair, per placement.

    ``eps`` counts ordered pairs whose signed readings coincide (zero for
    every valid placement); ``eps_unsigned`` drops the flow direction first,
    which can merge pairs and shows why direction matters.  Raises as the
    identifiability oracle does, whose readings table it shares: UnknownEdgeError
    for a sensor id outside the graph, ModelError unless the loads are finite.
    """
    restriction = frozenset(restriction)
    report = DeterministicReport()
    for pl in placements:
        obs = _readings(graph, pl, loads, restriction)
        report.rows.append(
            DeterministicRow(
                placement=pl.label(),
                n_trees=len(obs),
                eps=_collision_fraction(obs),
                eps_unsigned=_collision_fraction(np.abs(obs)),
            )
        )
    return report


# -- stochastic sweep ----------------------------------------------------------


#: Cells are loaded into the bank together up to this many rows (trials), so
#: sweeps with few trials per cell score many cells per numpy call, and a
#: load holds at most max(trials, _LOAD_ROWS) x hypotheses scores.
_LOAD_ROWS = 1000


def _run_group(config, trees, task) -> list[SweepRow]:
    """Rows of one (placement, sigma) group, or of a contiguous run of its true
    trees: true trees in enumeration order, detectors in config order.

    One HypothesisBank over the group's HypothesisCache is built here and
    dropped on return, so each hypothesis Gaussian and cycle basis is built at
    most once per task.  Runs of consecutive cells are loaded into the bank
    in turn, one row per trial (see ``_LOAD_ROWS``).
    """
    p_idx, s_idx, t_indices = task
    placement, sigma = config.placements[p_idx], config.sigmas[s_idx]
    model = config.noise_model(sigma)
    bank = HypothesisBank(HypothesisCache(config.graph, placement, model), config.restriction, trees)
    sd = model.stddevs
    per_load = max(1, _LOAD_ROWS // config.trials)
    t_indices = list(t_indices)
    rows = []
    for first in range(0, len(t_indices), per_load):
        cells = t_indices[first : first + per_load]
        readings = []
        for t_idx in cells:
            rng = np.random.default_rng((config.seed, p_idx, s_idx, t_idx))
            X = model.means + sd * rng.standard_normal((config.trials, len(sd)))
            # exact readings under the true tree, one row per trial
            readings.append(X @ observation_matrix(config.graph, trees[t_idx], placement).T)
        bank.load(np.vstack(readings))
        truth = np.repeat(cells, config.trials)
        misses = {
            name: (bank.detect(name, config.local_search) != truth).reshape(len(cells), -1).sum(axis=1)
            for name in config.detectors
        }
        for k, t_idx in enumerate(cells):
            for name in config.detectors:
                rows.append(
                    SweepRow(
                        placement=placement.label(),
                        detector=name + ("+local" if config.local_search else ""),
                        sigma=sigma,
                        true_tree=trees[t_idx].label(),
                        trials=config.trials,
                        misses=int(misses[name][k]),
                    )
                )
    return rows


def run_stochastic_sweep(config: ExperimentConfig, workers: int = 1) -> ErrorReport:
    """Missed-detection estimate per (placement, detector, sigma, true tree).

    Loads are redrawn per trial around the forecast means; sensors observe the
    exact flows of the true tree.  A detector exception counts as a miss and
    the run continues.  Work is done per (placement, sigma) group, each with
    one hypothesis cache shared by its cells and detectors; ``workers > 1``
    spreads the groups over processes (see the module docstring).  Output row
    order and contents are independent of the worker count.
    """
    _check_count(workers, "workers", 1)
    trees = list(enumerate_spanning_trees(config.graph, config.restriction))
    groups = [(p, s) for p in range(len(config.placements)) for s in range(len(config.sigmas))]
    # Fewer groups than workers: split each group's true trees into contiguous
    # runs, each with its own cache, so that every worker gets work.
    parts = max(1, min(len(trees), math.ceil(workers / max(len(groups), 1))))
    bounds = [len(trees) * k // parts for k in range(parts + 1)]
    tasks = [(p, s, range(a, b)) for p, s in groups for a, b in zip(bounds, bounds[1:])]
    run_group = partial(_run_group, config, trees)
    if workers == 1:
        results = [run_group(t) for t in tasks]
    else:
        # imported here: the pool machinery costs every single-worker process memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_group, tasks))
    report = ErrorReport()
    for rows in results:
        report.rows.extend(rows)
    return report


# -- placement ranking -----------------------------------------------------------


@dataclass(frozen=True)
class PlacementScore:
    placement: str
    g1: float
    g2: float
    rank: int


@dataclass
class PlacementRanking:
    scores: list[PlacementScore] = field(default_factory=list)

    def to_csv(self) -> str:
        return _csv_text(
            ["placement", "g1", "g2", "rank"],
            ([s.placement, f"{s.g1:.12g}", f"{s.g2:.12g}", s.rank] for s in self.scores),
        )

    write_csv = _write_csv


def evaluate_placements(
    graph: Graph,
    family: PlacementFamily,
    model: LoadModel,
    sigma: float,
    trials: int,
    detector: str = "map",
    seed: int = 0,
    restriction: Iterable[int] = (),
    sigma_mode: str = "absolute",
    workers: int = 1,
) -> tuple[PlacementRanking, ErrorReport]:
    """Score every placement of a family by mean (g1) and max (g2) miss rate.

    Ranked descending, worst placement first; ties break on g2 then on the
    placement label so the ordering is reproducible.
    """
    if not len(family):
        raise ModelError("placement family is empty")
    config = ExperimentConfig(
        graph=graph,
        load_model=model,
        placements=tuple(family.placements),
        sigmas=(sigma,),
        trials=trials,
        detectors=(detector,),
        seed=seed,
        restriction=frozenset(restriction),
        sigma_mode=sigma_mode,
    )
    report = run_stochastic_sweep(config, workers=workers)
    scored = []
    for pl in family.placements:
        label = pl.label()
        scored.append((report.g1(placement=label), report.g2(placement=label), label))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    ranking = PlacementRanking(
        scores=[
            PlacementScore(placement=label, g1=g1, g2=g2, rank=i + 1)
            for i, (g1, g2, label) in enumerate(scored)
        ]
    )
    return ranking, report
