import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from gridtree import ExperimentConfig, Placement, SpanningTree, hypothesis_flow, run_stochastic_sweep
from gridtree import (
    detect_cycle_descent,
    detect_deterministic,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
)
from gridtree import cli
from gridtree.cli import main
from gridtree.detect import DETECTOR_NAMES
from gridtree.fileio import (
    format_observation,
    format_placement,
    read_graph,
    read_loads,
    read_observation,
    write_loads,
    write_placement,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def island_files(island, tmp_path):
    gpath = tmp_path / "island.graph"
    lpath = tmp_path / "island.loads"
    assert main(["fixture", "--out", str(gpath), "--loads", str(lpath)]) == 0
    return gpath, lpath


class TestHelpGolden:
    @pytest.mark.parametrize(
        "name", ["main", "fixture", "trees", "placements", "check-placement",
                 "detect", "sweep", "rank-placements"],
    )
    def test_help_matches_golden(self, name, capsys):
        argv = ["--help"] if name == "main" else [name, "--help"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (DATA / f"help_{name}.txt").read_text()

    def test_every_documented_flag_appears(self):
        text = "".join(
            (DATA / f"help_{n}.txt").read_text()
            for n in ["trees", "placements", "check-placement", "detect", "sweep",
                      "rank-placements", "fixture"]
        )
        for flag in ["--graph", "--loads", "--placement", "--obs", "--sigma",
                     "--sigma-grid", "--trials", "--seed", "--workers", "--out",
                     "--require-tau"]:
            assert flag in text


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["trees", "--graph", "x", "--bogus"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["trees"]) == 1

    def test_missing_file_exits_1(self, capsys):
        assert main(["trees", "--graph", "/nonexistent/net.graph"]) == 1
        assert "missing file" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertices: a b\nedge 0 a z\n")
        assert main(["trees", "--graph", str(bad)]) == 1
        assert "gridtree:" in capsys.readouterr().err


class TestTreesAndPlacements:
    def test_restricted_tree_listing_has_44_lines(self, island_files, tmp_path):
        gpath, _ = island_files
        out = tmp_path / "trees.txt"
        assert main(["trees", "--graph", str(gpath), "--require-tau", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 44
        assert all(line.split()[:4] == ["0", "1", "2", "3"] for line in lines)

    def test_placement_listing_avoids_root_edges(self, island_files, tmp_path):
        gpath, _ = island_files
        out = tmp_path / "placements.txt"
        assert main(["placements", "--graph", str(gpath), "--require-tau", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 44
        assert all(set(line.split()).isdisjoint({"0", "1", "2", "3"}) for line in lines)


class TestCheckPlacement:
    def test_valid_placement(self, island, island_files, tmp_path, capsys):
        gpath, _ = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        assert main(["check-placement", "--graph", str(gpath), "--placement", str(ppath)]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_invalid_placement(self, island_files, tmp_path, capsys):
        gpath, _ = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((0, 1, 2, 3))))
        assert main(["check-placement", "--graph", str(gpath), "--placement", str(ppath)]) == 2
        assert capsys.readouterr().out.strip() == "invalid"


class TestDetect:
    def test_map_with_exact_observation_prints_true_tree(
        self, island, island_files, tmp_path, capsys
    ):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        ppath, opath = tmp_path / "p.place", tmp_path / "o.obs"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation(s))
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "map", "--require-tau",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == tree.label()

    def test_csv_row_written(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        ppath, opath = tmp_path / "p.place", tmp_path / "o.obs"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation(s))
        out = tmp_path / "res.csv"
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "deterministic", "--require-tau", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,tree,log_likelihood,iterations,converged"
        assert lines[1].startswith("deterministic,")

    def test_inconsistent_observation_exits_2(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        ppath, opath = tmp_path / "p.place", tmp_path / "o.obs"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation([10.0, -3.0, 2.5, 0.7]))
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "deterministic", "--require-tau",
        ])
        assert rc == 2


    def _exact_files(self, island, tmp_path):
        pl = Placement((6, 7, 10, 12))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        ppath, opath = tmp_path / "p.place", tmp_path / "o.obs"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation(s))
        return tree, ppath, opath

    def test_enum_writes_hits_to_out(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        tree, ppath, opath = self._exact_files(island, tmp_path)
        out = tmp_path / "hits.txt"
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "enum", "--require-tau", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == tree.label() + "\n"
        assert capsys.readouterr().out == tree.label() + "\n"

    @pytest.mark.parametrize("method", ["deterministic", "enum"])
    def test_unknown_sensor_id_exits_2(self, island, island_files, tmp_path, capsys, method):
        # -1 would index from the end and read edge 12's flow, as if it were a sensor id
        gpath, lpath = island_files
        _, ppath, opath = self._exact_files(island, tmp_path)
        ppath.write_text(ppath.read_text().replace("sensor 3 12", "sensor 3 -1"))
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", method, "--require-tau",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "unknown edge id -1" in captured.err

    def test_enum_with_local_search_is_usage_error(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        _, ppath, opath = self._exact_files(island, tmp_path)
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "enum", "--local-search",
        ])
        assert rc == 1
        assert "--local-search" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["deterministic", "enum"])
    def test_sigma_on_a_detector_that_reads_only_means_exits_1(
        self, island, island_files, tmp_path, capsys, method
    ):
        gpath, lpath = island_files
        _, ppath, opath = self._exact_files(island, tmp_path)
        argv = [
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", method, "--require-tau",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--sigma", "5"]) == 1
        assert "--sigma" in capsys.readouterr().err

    def test_sigma_reaches_the_local_search_after_deterministic(
        self, island, island_files, tmp_path, capsys
    ):
        gpath, lpath = island_files
        tree, ppath, opath = self._exact_files(island, tmp_path)
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", "deterministic", "--require-tau", "--local-search", "--sigma", "0.2",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == tree.label()

    def test_non_finite_observation_file_exits_1(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        _, ppath, opath = self._exact_files(island, tmp_path)
        opath.write_text("obs 0 1.0\nobs 1 nan\nobs 2 0.5\nobs 3 0.25\n")
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath), "--method", "map",
        ])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_negative_stddev_load_file_exits_1(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        _, ppath, opath = self._exact_files(island, tmp_path)
        lines = lpath.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " -0.2"
        lpath.write_text("\n".join(lines) + "\n")
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath), "--method", "map",
        ])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


class TestSweepAndRanking:
    def test_sweep_reproducible_across_workers(self, island, island_files, tmp_path):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        outs = []
        for workers, name in [(1, "a.csv"), (1, "b.csv"), (2, "c.csv")]:
            out = tmp_path / name
            rc = main([
                "sweep", "--graph", str(gpath), "--loads", str(lpath),
                "--placement", str(ppath), "--sigma-grid", "0.1,0.3",
                "--trials", "5", "--seed", "9", "--method", "map,fmst",
                "--require-tau", "--workers", str(workers), "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        # one noise level: --sigma writes what a one-value grid writes, and
        # --cv reads it as a percent of each node's mean, as sigma_mode "cv" does
        for name, noise in [("d.csv", ["--sigma", "0.2"]), ("e.csv", ["--sigma-grid", "0.2"]),
                            ("f.csv", ["--sigma", "20", "--cv"])]:
            assert main([
                "sweep", "--graph", str(gpath), "--loads", str(lpath), "--placement", str(ppath),
                *noise, "--trials", "5", "--seed", "9", "--method", "map,fmst",
                "--require-tau", "--out", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()
        config = ExperimentConfig(
            graph=island.graph, load_model=island.load_model, placements=(Placement((6, 7, 10, 12)),),
            sigmas=(20.0,), trials=5, detectors=("map", "fmst"), seed=9, restriction=island.tau,
            sigma_mode="cv",
        )
        assert (tmp_path / "f.csv").read_text() == run_stochastic_sweep(config).to_csv()

    def test_sweep_requires_sigma(self, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        rc = main([
            "sweep", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--trials", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "--sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["abc", "0.1,"])
    def test_sweep_unparseable_sigma_grid_exits_1(self, island_files, tmp_path, capsys, grid):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        out = tmp_path / "x.csv"
        rc = main([
            "sweep", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--sigma-grid", grid, "--trials", "2",
            "--out", str(out),
        ])
        assert rc == 1
        assert "--sigma-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_sigma_with_sigma_grid_exits_1(self, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        out = tmp_path / "x.csv"
        rc = main([
            "sweep", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--sigma", "0.5", "--sigma-grid", "0.05",
            "--trials", "2", "--require-tau", "--out", str(out),
        ])
        assert rc == 1
        assert "--sigma-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, workers", [("sweep", "-4"), ("rank-placements", "0"), ("sweep", "abc")]
    )
    def test_workers_below_one_exits_1(self, island_files, tmp_path, capsys, command, workers):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        out = tmp_path / "x.csv"
        where = ["--placement", str(ppath)] if command == "sweep" else []
        rc = main([
            command, "--graph", str(gpath), "--loads", str(lpath), *where,
            "--sigma", "0.1", "--trials", "1", "--require-tau", "--workers", workers,
            "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--workers" in err and "_workers" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--trials", "0"),
            ("sweep", "--sigma", "-1"),
            ("sweep", "--sigma", "inf"),
            ("sweep", "--sigma-grid", "nan"),
            ("sweep", "--sigma-grid", "0.1,-0.2"),
            ("sweep", "--seed", "-1"),
            ("rank-placements", "--trials", "0"),
            ("rank-placements", "--sigma", "-1"),
            ("rank-placements", "--cv", "-1"),
            ("rank-placements", "--seed", "-3"),
            ("detect", "--sigma", "-1"),
        ],
    )
    def test_bad_numeric_flag_exits_1(self, island, island_files, tmp_path, capsys, command, flag, value):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        ppath, opath, out = tmp_path / "p.place", tmp_path / "o.obs", tmp_path / "x.csv"
        ppath.write_text(format_placement(pl))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        opath.write_text(format_observation(hypothesis_flow(island.graph, tree, pl, island.load_model.means)))
        argv = [command, "--graph", str(gpath), "--loads", str(lpath), "--out", str(out)]
        if command != "rank-placements":
            argv += ["--placement", str(ppath)]
        if command == "detect":
            argv += ["--obs", str(opath)]
        if flag not in ("--sigma", "--sigma-grid", "--cv"):
            argv += ["--sigma", "0.1"]
        rc = main(argv + [flag, value])
        assert rc == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_unknown_method_exits_1(self, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        ppath = tmp_path / "p.place"
        ppath.write_text(format_placement(Placement((6, 7, 10, 12))))
        out = tmp_path / "x.csv"
        rc = main([
            "sweep", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--sigma", "0.1", "--trials", "2",
            "--method", "map,bogus", "--out", str(out),
        ])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_placements_smoke(self, island_files, tmp_path):
        gpath, lpath = island_files
        out = tmp_path / "rank.csv"
        rc = main([
            "rank-placements", "--graph", str(gpath), "--loads", str(lpath),
            "--sigma", "0.0", "--trials", "1", "--seed", "0",
            "--require-tau", "--out", str(out), "--report-out", str(tmp_path / "report.csv"),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "placement,g1,g2,rank"
        assert len(lines) == 45
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "placement,detector,sigma,true_tree,trials,misses,rate,stderr"
        assert len(report) == 1 + 44 * 44  # one row per (placement, true tree)
        assert all(row.split(",")[5] == "0" for row in report[1:])

    def test_rank_placements_needs_exactly_one_noise_flag(self, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        for noise in ([], ["--sigma", "0.1", "--cv", "5"]):
            rc = main([
                "rank-placements", "--graph", str(gpath), "--loads", str(lpath),
                "--trials", "1", *noise, "--out", str(tmp_path / "r.csv"),
            ])
            assert rc == 1
            assert "--sigma / --cv" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestParserReuse:
    """``main`` builds its parser once per process; no call may depend on the
    calls before it."""

    @staticmethod
    def _run(argv, out, capsys):
        out.unlink(missing_ok=True)
        rc = main(argv)
        std = capsys.readouterr()
        return rc, std.out, std.err, out.read_bytes() if out.exists() else None

    def test_calls_in_sequence_match_fresh_parsers(self, island, island_files, tmp_path, capsys):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        ppath, opath, out = tmp_path / "p.place", tmp_path / "o.obs", tmp_path / "out.csv"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation(s))
        files = ["--graph", str(gpath), "--loads", str(lpath), "--placement", str(ppath)]
        sweep = ["sweep", *files, "--sigma", "0.2", "--seed", "3", "--method", "fmst", "--require-tau"]
        detect = ["detect", *files, "--obs", str(opath), "--method", "map", "--require-tau", "--out", str(out)]
        calls = [
            [*sweep, "--trials", "4", "--local-search", "--out", str(out)],
            [*sweep, "--trials", "4", "--out", str(out)],
            [*detect, "--sigma", "0.3"],
            detect,
            [*sweep, "--trials", "0", "--out", str(out)],  # a usage error
            [*sweep, "--trials", "4", "--local-search", "--out", str(out)],
        ]
        cli._shared_parser.cache_clear()
        shared = [self._run(argv, out, capsys) for argv in calls]
        assert cli._shared_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._shared_parser.cache_clear()
            fresh.append(self._run(argv, out, capsys))
        assert shared == fresh
        assert [rc for rc, *_ in shared] == [0, 0, 0, 0, 1, 0]
        assert shared[0] != shared[1] and shared[2] != shared[3]  # each flag took effect
        assert shared[0] == shared[5]
        assert "+local" not in shared[1][3].decode()


class TestSweepBytes:
    #: sha256 of sweep captures of ``acceptance_csvs.py``: the fmst sweeps, as
    #: sweeps that took each row's tree from Kruskal wrote them, and the
    #: zeroflow, enum and deterministic sweeps, as sweeps that ran those
    #: detectors trial by trial, through their per-call functions, wrote them
    DIGESTS = {
        "sweep_fmst_3.csv": "fd6e3fbff50adde49220d8deced25538b4a533b8ac8cee829f169072d9c4cf2f",
        "sweep_fmst_40.csv": "386c18af34927862fef65324cffda543d1643caafb7879ba4fe80eaa6818cf07",
        "sweep_fmst_local_3.csv": "79b7cf873fcec443efdf47cce26da8dc2b025ba0dca8fec66b604099f7a1ea07",
        "sweep_fmst_local_40.csv": "7d8bf4dd518b23a338c669da7c43bab5a22ff18e3774bd519ecc77c56f819ac2",
        "sweep_fmst_notau_3.csv": "27ceac8bb3ea3f8abbee27c926daa183623b80489cb95a0568ae9b2431a785eb",
        "sweep_fmst_notau_40.csv": "eebd9cc9f843b253e766634119153feb6237b19a3cd5eecebdb8bff5816b757a",
        "sweep_fmst_local_notau_3.csv": "856bf71045a7d0d46781cffa3318affe0115c0cba2a5f5aabe5444f5381edb08",
        "sweep_fmst_local_notau_40.csv": "6223a5b8f51c2138fcff0a447705a1e7a9d4937febb27538fabccb503eb79668",
        "sweep_zeroflow_3.csv": "5df9cd5e71104f4c03d5bc1e6a6dd6558adbdeff74c1ec74b8f1686882fc19af",
        "sweep_zeroflow_40.csv": "8a132171c7abd36747b2f702036e89bf4e13f7a9311f4cc6bd93c0c88c61f9ae",
        "sweep_zeroflow_local_3.csv": "480732ee84186149c0b70ef87d8475676b1be0b3c05edbc21319d7c61ceb7c31",
        "sweep_zeroflow_local_40.csv": "e42e4ce38fdd15d9faddf59525a6f16e6f2f230babc266322577d6e9d6883c4a",
        "sweep_enum_3.csv": "63a6ac099ca2468fd8fe37614c087c436257bbfb79186c757a98f9cf0d672561",
        "sweep_enum_40.csv": "4b9e8e226883dee6ffdbba30c00f6028c97877a4b608c94a02e3d940e451ae2d",
        "sweep_enum_local_3.csv": "d93d415dc4c7a13a317e5b98ba6f71a1919324a52a83f86a8c87a7a2936fe11e",
        "sweep_enum_local_40.csv": "67a0e2017d43bbae95d36ca7890dc9af791330d82767cb2062628d22d3532fb4",
        "sweep_deterministic_3.csv": "3479f6fbb531806a205d0a0af3ee3cd5ee85bdd5256cdbc21dfa53ed0c7dd661",
        "sweep_deterministic_40.csv": "7b4386fdd491700d32e42e1fddcbd1fda92dfa4d388e6849c1486f9bfe4bc5d0",
        "sweep_deterministic_local_3.csv": "cb62468f04125dc9e6bf5734c9bc89ff34795c7be27822b5541d439086961cd3",
        "sweep_deterministic_local_40.csv": "dbf44299a73f860036f951eaa004a95e047700f756a4d5d9f052853a0cc7bf40",
    }

    def test_sweeps_keep_their_bytes(self, tmp_path, capsys):
        import acceptance_csvs

        assert acceptance_csvs.main([str(tmp_path), *self.DIGESTS]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.DIGESTS)
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_console_module_smoke(tmp_path):
    gpath = tmp_path / "island.graph"
    res = subprocess.run(
        [sys.executable, "-m", "gridtree", "fixture", "--out", str(gpath)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    res = subprocess.run(
        [sys.executable, "-m", "gridtree", "trees", "--graph", str(gpath), "--require-tau"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 44


class TestDetectorRegistry:
    @pytest.mark.parametrize("method", [m for m in DETECTOR_NAMES if m != "enum"])
    def test_cli_prints_the_direct_call_result(
        self, method, island, island_files, tmp_path, capsys
    ):
        gpath, lpath = island_files
        pl = Placement((6, 7, 10, 12))
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        ppath, opath, out = tmp_path / "p.place", tmp_path / "o.obs", tmp_path / "res.csv"
        ppath.write_text(format_placement(pl))
        opath.write_text(format_observation(s))
        rc = main([
            "detect", "--graph", str(gpath), "--loads", str(lpath),
            "--placement", str(ppath), "--obs", str(opath),
            "--method", method, "--require-tau", "--out", str(out),
        ])
        assert rc == 0
        model = read_loads(lpath)
        g = read_graph(gpath).with_load_vertices(model.nodes)
        obs, tau = read_observation(opath), g.root_edges()
        direct = {
            "deterministic": lambda: detect_deterministic(g, pl, model.means, obs, tau),
            "map": lambda: detect_map(g, pl, model, obs, tau),
            "zeroflow": lambda: detect_zero_flow_map(g, pl, model, obs, tau),
            "fmst": lambda: detect_fmst(g, pl, model, obs, required_edges=tau),
            "cycledescent": lambda: detect_cycle_descent(g, pl, model, obs, required_edges=tau),
        }[method]()
        assert capsys.readouterr().out == direct.tree.label() + "\n"
        row = ",".join(str(c) for c in direct.csv_row())
        assert out.read_text().splitlines()[1] == row
