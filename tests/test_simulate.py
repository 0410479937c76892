import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridtree.detect
import gridtree.graph
from gridtree import (
    ErrorReport,
    ExperimentConfig,
    Graph,
    InvalidPlacementError,
    LoadModel,
    ModelError,
    Placement,
    SpanningTree,
    UnknownEdgeError,
    UnsupportedPlacementError,
    count_spanning_trees,
    detect_cycle_descent,
    detect_fmst,
    enumerate_valid_placements,
    evaluate_placements,
    local_map_search,
    naive_identifiability_oracle,
    run_deterministic_sweep,
    run_stochastic_sweep,
)
from gridtree.simulate import SweepRow


@pytest.fixture(scope="module")
def tau_family(island):
    return enumerate_valid_placements(island.graph, island.tau)


class TestDeterministicSweep:
    def test_signed_readings_always_distinguish(self, island, tau_family):
        report = run_deterministic_sweep(
            island.graph, tau_family, island.load_model.means, restriction=island.tau
        )
        assert len(report.rows) == 44
        assert all(r.eps == 0.0 for r in report.rows)

    def test_unsigned_readings_collide_somewhere(self, island, tau_family):
        report = run_deterministic_sweep(
            island.graph, tau_family, island.load_model.means, restriction=island.tau
        )
        positives = [r for r in report.rows if r.eps_unsigned > 0]
        assert positives
        # per-placement variation: not all placements collide equally
        assert len({round(r.eps_unsigned, 12) for r in report.rows}) > 1

    def test_single_tree_graph_vacuous(self):
        g = Graph(["a", "b"], [("a", "b")])
        report = run_deterministic_sweep(g, [Placement(())], [1.0])
        assert report.rows[0].eps == 0.0
        assert report.rows[0].eps_unsigned == 0.0

    def test_no_spanning_tree_gives_an_empty_row(self):
        # a disconnected graph has no spanning tree: 0 trees, so no colliding pair
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        report = run_deterministic_sweep(g, [Placement((1,))], [1.0, 1.0, 1.0])
        assert report.to_csv() == "placement,n_trees,eps,eps_unsigned\n1,0,0,0\n"
        assert count_spanning_trees(g) == 0
        assert naive_identifiability_oracle(g, Placement((1,)), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("ids", [(-1,), (13,)])
    def test_unknown_sensor_edge_rejected(self, island, ids):
        # Placement((-1,)) used to give placement 12's row, Placement((13,)) an IndexError
        with pytest.raises(UnknownEdgeError):
            run_deterministic_sweep(island.graph, [Placement(ids)], island.load_model.means, island.tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loads_rejected(self, island, tau_family, bad):
        # NaN loads used to give eps 0 for every placement, inf loads eps 0.1057
        with pytest.raises(ModelError, match="finite"):
            run_deterministic_sweep(island.graph, tau_family, np.full(5, bad), island.tau)

    def test_csv_round_stable(self, island, tau_family):
        report = run_deterministic_sweep(
            island.graph, tau_family.placements[:3], island.load_model.means, island.tau
        )
        text = report.to_csv()
        assert text.splitlines()[0] == "placement,n_trees,eps,eps_unsigned"
        assert len(text.splitlines()) == 4


class TestStochasticSweep:
    def test_zero_noise_zero_misses(self, island, tau_family):
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.0,),
            trials=3,
            detectors=("map", "deterministic", "zeroflow", "enum"),
            seed=1,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        assert all(r.misses == 0 for r in report.rows)

    def test_stderr_is_binomial(self, island, tau_family):
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.5,),
            trials=40,
            detectors=("fmst",),
            seed=2,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        for r in report.rows:
            p = r.misses / r.trials
            assert r.rate == pytest.approx(p)
            assert r.stderr == pytest.approx(np.sqrt(p * (1 - p) / r.trials))

    def test_reproducible_and_worker_independent(self, island, tau_family):
        # 2 placements x 2 sigmas = four groups without local search; with it,
        # one group, which two workers split between them
        for local_search, n in ((False, 2), (True, 1)):
            config = ExperimentConfig(
                graph=island.graph,
                load_model=island.load_model,
                placements=tau_family.placements[:n],
                sigmas=(0.3, 0.1)[:n],
                trials=10,
                detectors=("map", "fmst"),
                seed=5,
                restriction=island.tau,
                local_search=local_search,
            )
            a = run_stochastic_sweep(config, workers=1).to_csv()
            b = run_stochastic_sweep(config, workers=1).to_csv()
            c = run_stochastic_sweep(config, workers=2).to_csv()
            assert a == b == c
            assert len(a.splitlines()) == 1 + n * n * 44 * 2

    def test_one_gaussian_build_per_hypothesis_per_group(self, island, tau_family, monkeypatch):
        builds = []  # fills of the per-tree memo of private-load laws
        init = gridtree.detect._PrivateLoads.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(gridtree.detect._PrivateLoads, "__init__", counting_init)
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=tau_family.placements[:2],
            sigmas=(0.1, 0.4),
            trials=2,
            detectors=("map", "fmst", "cycledescent"),
            seed=4,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        assert len(report.rows) == 2 * 2 * 44 * 3
        assert 0 < len(builds) <= 2 * 2 * 44

    @pytest.mark.parametrize("local_search", [False, True])
    def test_one_required_forest_per_fmst_block(self, island, tau_family, monkeypatch, local_search):
        # at most one forest per block, and only for blocks that the bank
        # sends to Kruskal instead of its product over the hypotheses
        calls = {"forest": 0, "block": 0}
        fallback = []  # rows of each Kruskal call
        forest, load = gridtree.graph._required_forest, gridtree.detect.HypothesisBank.load
        kruskal = gridtree.detect.max_weight_spanning_tree

        def counting_kruskal(graph, weights, required):
            fallback.append(len(weights))
            return kruskal(graph, weights, required)

        def counting_forest(*args):
            calls["forest"] += 1
            return forest(*args)

        def counting_load(self, readings):
            calls["block"] += len(readings) > 0  # a bank starts with an empty block
            load(self, readings)

        monkeypatch.setattr(gridtree.graph, "_required_forest", counting_forest)
        monkeypatch.setattr(gridtree.detect.HypothesisBank, "load", counting_load)
        monkeypatch.setattr(gridtree.detect, "max_weight_spanning_tree", counting_kruskal)
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=tau_family.placements[:2],
            sigmas=(0.1, 0.4),
            trials=30,
            detectors=("fmst",),
            seed=4,
            restriction=island.tau,
            local_search=local_search,
        )
        report = run_stochastic_sweep(config)
        assert len(report.rows) == 2 * 2 * 44
        # 2 x 2 groups of 44 x 30 rows, loaded 33 cells at a time
        assert calls["block"] == 2 * 2 * 2
        # one forest for the sweep's enumeration of the hypotheses, then one per Kruskal call
        assert calls["forest"] == 1 + len(fallback)
        assert len(fallback) <= calls["block"] and all(fallback)

    def test_doubling_trials_shrinks_stderr(self, island, tau_family):
        def stderr_at(trials):
            config = ExperimentConfig(
                graph=island.graph,
                load_model=island.load_model,
                placements=(tau_family.placements[0],),
                sigmas=(0.5,),
                trials=trials,
                detectors=("map",),
                seed=11,
                restriction=island.tau,
            )
            report = run_stochastic_sweep(config)
            return report.stderr(detector="map", sigma=0.5)

        a, b = stderr_at(250), stderr_at(500)
        ratio = b / a
        assert 0.8 / np.sqrt(2) < ratio < 1.2 / np.sqrt(2)

    def test_detector_failures_count_as_misses(self, island, tau_family):
        # the deterministic decoder assumes exact loads; under noise it keeps
        # running but errors on inconsistent observations, which are recorded
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.4,),
            trials=20,
            detectors=("deterministic",),
            seed=3,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        assert sum(r.misses for r in report.rows) > 0

    def test_batch_form_error_is_a_miss_on_every_trial(self, island):
        # the unmeasured edges of an invalid placement leave fmst's relaxed
        # flow unsolvable, so every trial of every cell fails
        pl = Placement((0, 1, 2, 3))
        with pytest.raises(InvalidPlacementError):
            detect_fmst(island.graph, pl, island.load_model, np.ones(4), island.tau)
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(pl,),
            sigmas=(0.1,),
            trials=3,
            detectors=("fmst",),
            seed=1,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        assert len(report.rows) == 44
        assert all(r.misses == r.trials == 3 for r in report.rows)

    def test_oversized_placement_makes_every_zeroflow_row_a_miss(self, island):
        # one sensor more than the circuit rank: the zero-flow test refuses the
        # whole block, and every trial of every cell is a miss; MAP still runs
        pl = Placement((6, 7, 10, 12, 4))
        cache = gridtree.detect.HypothesisCache(island.graph, pl, island.load_model)
        bank = gridtree.detect.HypothesisBank(cache, island.tau, cache.hypotheses(island.tau), np.ones((2, 5)))
        with pytest.raises(UnsupportedPlacementError, match="needs exactly 4 sensors, got 5"):
            gridtree.detect.DETECTOR_BATCHES["zeroflow"](bank)
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(pl,),
            sigmas=(0.1,),
            trials=3,
            detectors=("zeroflow", "map"),
            seed=1,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        rows = report.filtered(detector="zeroflow")
        assert len(rows) == 44 and all(r.misses == r.trials == 3 for r in rows)
        assert report.rate(detector="map") < 0.5

    def test_workers_below_one_rejected(self, island, tau_family):
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.1,),
            trials=1,
            restriction=island.tau,
        )
        for workers in (0, -4, 1.5):  # 1.5 used to raise a bare TypeError
            with pytest.raises(ModelError, match="workers"):
                run_stochastic_sweep(config, workers=workers)
        one = type(tau_family)(placements=tau_family.placements[:1], forbidden=tau_family.forbidden)
        with pytest.raises(ModelError, match="workers"):
            evaluate_placements(
                island.graph, one, island.load_model, sigma=0.1, trials=1,
                restriction=island.tau, workers=0,
            )

    def test_unknown_detector_rejected(self, island, tau_family):
        with pytest.raises(ModelError):
            ExperimentConfig(
                graph=island.graph,
                load_model=island.load_model,
                placements=(tau_family.placements[0],),
                sigmas=(0.1,),
                trials=1,
                detectors=("nope",),
            )

    def test_negative_seed_rejected(self, island, tau_family):
        with pytest.raises(ModelError, match="seed must be >= 0"):
            ExperimentConfig(
                graph=island.graph,
                load_model=island.load_model,
                placements=(tau_family.placements[0],),
                sigmas=(0.1,),
                trials=1,
                seed=-1,
            )

    @pytest.mark.parametrize(
        "field, match",
        [
            ({"trials": 0}, "trials must be >= 1"),
            ({"sigmas": (0.1, -0.1)}, "sigma values"),
            ({"sigmas": (float("nan"),)}, "sigma values"),
            ({"sigma_mode": "relative"}, "unknown sigma mode"),
            ({"trials": 2.5}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
            ({"seed": 0.5}, "seed must be an integer"),
        ],
        ids=[
            "no_trials", "negative_sigma", "nan_sigma", "unknown_mode",
            "fractional_trials", "bool_trials", "fractional_seed",
        ],
    )
    def test_invalid_config_rejected(self, island, tau_family, field, match):
        args = dict(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.1,),
            trials=1,
        )
        with pytest.raises(ModelError, match=match):
            ExperimentConfig(**{**args, **field})

    def test_graph_without_a_cycle(self):
        # circuit rank 0: one tree, no basis cycle, nothing to exchange
        g = Graph(["r", "a", "b"], [("r", "a"), ("a", "b")], root="r")
        model = LoadModel(g.load_vertices, [1.0, 2.0], [0.1, 0.1])
        pl, tree = Placement(()), SpanningTree(frozenset({0, 1}))
        r = detect_cycle_descent(g, pl, model, np.zeros(0))
        assert (r.tree, r.iterations, r.converged) == (tree, 1, True)
        r = local_map_search(g, pl, model, np.zeros(0), tree)
        assert (r.tree, r.iterations) == (tree, 1)
        config = ExperimentConfig(
            graph=g, load_model=model, placements=(pl,), sigmas=(0.1,), trials=5,
            detectors=("cycledescent", "fmst"), local_search=True,
        )
        assert [row.misses for row in run_stochastic_sweep(config).rows] == [0, 0]

    def test_csv_schema(self, island, tau_family):
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=(tau_family.placements[0],),
            sigmas=(0.1,),
            trials=2,
            detectors=("map",),
            seed=0,
            restriction=island.tau,
        )
        text = run_stochastic_sweep(config).to_csv()
        lines = text.splitlines()
        assert lines[0] == "placement,detector,sigma,true_tree,trials,misses,rate,stderr"
        assert len(lines) == 1 + 44


class TestEvaluatePlacements:
    def test_zero_noise_all_zero(self, island, tau_family):
        ranking, report = evaluate_placements(
            island.graph,
            type(tau_family)(placements=tau_family.placements[:4], forbidden=tau_family.forbidden),
            island.load_model,
            sigma=0.0,
            trials=2,
            restriction=island.tau,
        )
        assert all(s.g1 == 0.0 and s.g2 == 0.0 for s in ranking.scores)

    def test_g2_at_least_g1_and_ranked(self, island, tau_family):
        ranking, report = evaluate_placements(
            island.graph,
            type(tau_family)(placements=tau_family.placements[:6], forbidden=tau_family.forbidden),
            island.load_model,
            sigma=0.4,
            trials=8,
            seed=7,
            restriction=island.tau,
        )
        assert len(ranking.scores) == 6
        for s in ranking.scores:
            assert s.g2 >= s.g1
        g1s = [s.g1 for s in ranking.scores]
        assert g1s == sorted(g1s, reverse=True)
        assert [s.rank for s in ranking.scores] == list(range(1, 7))

    def test_csv_schema(self, island, tau_family):
        ranking, _ = evaluate_placements(
            island.graph,
            type(tau_family)(placements=tau_family.placements[:2], forbidden=tau_family.forbidden),
            island.load_model,
            sigma=0.0,
            trials=1,
            restriction=island.tau,
        )
        lines = ranking.to_csv().splitlines()
        assert lines[0] == "placement,g1,g2,rank"
        assert len(lines) == 3

    def test_empty_family_rejected(self, island, tau_family):
        empty = type(tau_family)(placements=(), forbidden=tau_family.forbidden)
        with pytest.raises(ModelError, match="placement family is empty"):
            evaluate_placements(island.graph, empty, island.load_model, sigma=0.1, trials=1)


class TestErrorReport:
    def test_filtered_by_each_field(self):
        cells = itertools.product(("1 2", "3 4"), ("map", "fmst"), (0.1, 0.2))
        rows = [SweepRow(p, d, s, "0 1", trials=8, misses=m) for m, (p, d, s) in enumerate(cells)]
        report = ErrorReport(rows)
        assert report.filtered(detector="fmst") == [r for r in rows if r.detector == "fmst"]
        assert report.filtered(sigma=0.2) == [r for r in rows if r.sigma == 0.2]
        assert report.filtered("3 4", "map", 0.1) == [rows[4]]
        assert report.rate(detector="map") == (0 + 1 + 4 + 5) / 32

    @pytest.mark.parametrize("statistic", ["rate", "stderr", "g1", "g2"])
    def test_empty_selection_raises_model_error(self, statistic):
        report = ErrorReport([SweepRow("1 2", "map", 0.1, "0 1", trials=8, misses=1)])
        with pytest.raises(ModelError, match="placement='nope'"):
            getattr(report, statistic)(placement="nope")


class TestZeroFlowSweepReuse:
    def test_one_zero_flow_gaussian_build_per_hypothesis_per_group(
        self, island, tau_family, monkeypatch
    ):
        builds = []
        init = gridtree.detect.ReducedGaussian.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(gridtree.detect.ReducedGaussian, "__init__", counting_init)
        config = ExperimentConfig(
            graph=island.graph,
            load_model=island.load_model,
            placements=tau_family.placements[:2],
            sigmas=(0.1, 0.4),
            trials=2,
            detectors=("zeroflow",),
            seed=4,
            restriction=island.tau,
        )
        report = run_stochastic_sweep(config)
        assert len(report.rows) == 2 * 2 * 44
        assert 0 < len(builds) <= 2 * 2 * 44


class TestCsvFiles:
    def test_write_csv_writes_to_csv(self, island, tau_family, tmp_path):
        family = type(tau_family)(placements=tau_family.placements[:2], forbidden=tau_family.forbidden)
        ranking, report = evaluate_placements(
            island.graph, family, island.load_model, sigma=0.2, trials=2, restriction=island.tau
        )
        deterministic = run_deterministic_sweep(
            island.graph, family, island.load_model.means, restriction=island.tau
        )
        for k, table in enumerate((ranking, report, deterministic)):
            path = tmp_path / f"{k}.csv"
            table.write_csv(path)
            assert path.read_bytes() == table.to_csv().encode()


class TestLazyProcessPool:
    def test_import_leaves_the_pool_unloaded(self):
        # a sweep with one worker never needs concurrent.futures.process or
        # multiprocessing; run_stochastic_sweep imports them for workers > 1.
        # Importing the package and its CLI loads nothing outside the
        # standard library but numpy and gridtree: start-up time is imports.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; before = set(sys.modules); import gridtree, gridtree.cli; "
            "print('concurrent.futures.process' in sys.modules); "
            "print(sorted({n.split('.')[0] for n in set(sys.modules) - before}))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert res.returncode == 0, res.stderr
        pool, loaded = res.stdout.splitlines()
        assert pool == "False"
        outside = [n for n in ast.literal_eval(loaded) if n not in sys.stdlib_module_names]
        assert outside == ["gridtree", "numpy"]
