import numpy as np
import pytest

from gridtree import GraphFormatError, LoadModel, Placement, build_island_fixture
from gridtree.fileio import (
    format_graph,
    format_loads,
    format_observation,
    format_placement,
    parse_graph,
    parse_loads,
    parse_observation,
    parse_placement,
    read_graph,
    read_placement,
    write_graph,
    write_placement,
)


class TestGraphFormat:
    def test_round_trip(self, island):
        g2 = parse_graph(format_graph(island.graph))
        assert g2.vertices == island.graph.vertices
        assert g2.edges == island.graph.edges
        assert g2.root == island.graph.root

    def test_file_round_trip(self, island, tmp_path):
        path = tmp_path / "net.graph"
        write_graph(island.graph, path)
        assert read_graph(path).edges == island.graph.edges

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="vertices"):
            parse_graph("edge 0 a b\n")

    def test_duplicate_edge_id_reports_line(self):
        text = "vertices: a b c\nedge 0 a b\nedge 0 b c\n"
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph(text)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices: a a\n")

    def test_non_dense_edge_ids(self):
        with pytest.raises(GraphFormatError, match="dense"):
            parse_graph("vertices: a b\nedge 1 a b\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("vertices: a b\nbogus 1 2\n")

    @pytest.mark.parametrize(
        "line, match",
        [
            ("vertices: a b", "duplicate vertices header"),
            ("root: a b", "root needs exactly one id"),
            ("edge 1 a", "expected 'edge <id> <from> <to>'"),
            ("edge x a b", "edge id must be an integer"),
        ],
    )
    def test_malformed_line_reports_line(self, line, match):
        with pytest.raises(GraphFormatError, match=f"line 3: {match}"):
            parse_graph(f"vertices: a b\nedge 0 a b\n{line}\n")

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nvertices: a b\nroot: a\n\nedge 0 a b\n"
        g = parse_graph(text)
        assert g.n_edges == 1 and g.root == "a"

    def test_self_loop_reported_as_format_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph("vertices: a b\nedge 0 a a\n")


class TestPlacementFormat:
    def test_round_trip(self):
        pl = Placement((6, 7, 10, 12))
        assert parse_placement(format_placement(pl)).edge_ids == pl.edge_ids

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "net.placement"
        write_placement(Placement((6, 7, 10, 12)), path)
        assert read_placement(path) == Placement((6, 7, 10, 12))

    @pytest.mark.parametrize(
        "line, match",
        [
            ("sensor 1", "expected 'sensor <k> <edge id>'"),
            ("obs 1 4", "expected 'sensor <k> <edge id>'"),
            ("sensor 1 4.5", "sensor fields must be integers"),
            ("sensor x 4", "sensor fields must be integers"),
        ],
    )
    def test_malformed_line_reports_line(self, line, match):
        with pytest.raises(GraphFormatError, match=f"line 2: {match}"):
            parse_placement(f"sensor 0 6\n{line}\n")

    def test_order_is_sensor_index(self):
        text = "sensor 1 4\nsensor 0 9\n"
        assert parse_placement(text).edge_ids == (9, 4)

    def test_duplicate_index_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_placement("sensor 0 4\nsensor 0 5\n")

    def test_sparse_indices_rejected(self):
        with pytest.raises(GraphFormatError, match="dense"):
            parse_placement("sensor 1 4\n")


class TestLoadFormat:
    def test_round_trip(self):
        model = LoadModel(("v1", "v2"), np.array([1.5, 2.0]), np.array([0.04, 0.0]))
        back = parse_loads(format_loads(model))
        assert back.nodes == model.nodes
        assert np.allclose(back.means, model.means)
        assert np.allclose(back.variances, model.variances)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_loads("load v1 1 0\nload v1 2 0\n")

    def test_bad_number_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_loads("load v1 one 0\n")

    def test_missing_field_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1: expected 'load <vertex> <mean> <stddev>'"):
            parse_loads("load v1 1\n")

    def test_negative_stddev_rejected(self):
        # used to be squared into variance 0.04, as if the stddev were 0.2
        with pytest.raises(GraphFormatError, match="line 1: .*stddev >= 0"):
            parse_loads("load v1 1.0 -0.2\n")

    def test_empty_file_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_loads("\n")

    @pytest.mark.parametrize("line", ["load v1 nan 0", "load v1 1 inf"])
    def test_non_finite_rejected(self, line):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_loads("load v0 1 0\n" + line + "\n")


class TestObservationFormat:
    def test_round_trip(self):
        vals = np.array([0.5, -2.25, 0.0])
        assert np.allclose(parse_observation(format_observation(vals)), vals)

    def test_duplicate_index_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_observation("obs 0 1.0\nobs 0 2.0\n")

    def test_sparse_indices_rejected(self):
        with pytest.raises(GraphFormatError, match="dense"):
            parse_observation("obs 2 1.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rejected(self, value):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_observation(f"obs 0 1.0\nobs 1 {value}\n")


def test_fixture_files_are_loadable(tmp_path):
    from gridtree.fileio import read_loads, write_loads

    fx = build_island_fixture()
    gpath, lpath = tmp_path / "i.graph", tmp_path / "i.loads"
    write_graph(fx.graph, gpath)
    write_loads(fx.load_model, lpath)
    g = read_graph(gpath)
    m = read_loads(lpath)
    g = g.with_load_vertices(m.nodes)
    m.check_graph(g)
    assert g.root_edges() == fx.tau
