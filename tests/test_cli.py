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
