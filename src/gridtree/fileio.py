"""Line-oriented text formats for graphs, placements, loads and observations.

Graph file:
    vertices: <id> <id> ...
    root: <id>              (optional; defaults to the first vertex)
    edge <id> <from> <to>   (one per edge; <from> is the reference tail)

Placement file:   sensor <k> <edge id>        (k dense from 0)
Load file:        load <vertex id> <mean> <stddev>   (stddev >= 0)
Observation file: obs <k> <value>

Blank lines and lines starting with '#' are ignored.  All floats are decimal,
finite and locale-independent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GraphFormatError
from .flows import LoadModel
from .graph import Graph
from .placement import Placement


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_graph(text: str) -> Graph:
    vertices: list | None = None
    root = None
    edges: dict[int, tuple] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "vertices:":
            if vertices is not None:
                raise GraphFormatError(f"line {lineno}: duplicate vertices header")
            vertices = parts[1:]
            if len(set(vertices)) != len(vertices):
                raise GraphFormatError(f"line {lineno}: duplicate vertex ids")
        elif parts[0] == "root:":
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: root needs exactly one id")
            root = parts[1]
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'edge <id> <from> <to>'")
            try:
                eid = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: edge id must be an integer") from None
            if eid in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge id {eid}")
            edges[eid] = (parts[2], parts[3])
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    if vertices is None:
        raise GraphFormatError("missing 'vertices:' header")
    if sorted(edges) != list(range(len(edges))):
        raise GraphFormatError("edge ids must be dense 0..|E|-1")
    ordered = [edges[i] for i in range(len(edges))]
    try:
        return Graph(vertices, ordered, root=root)
    except Exception as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(graph: Graph) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in graph.vertices)]
    lines.append(f"root: {graph.root}")
    for eid, (u, v) in enumerate(graph.edges):
        lines.append(f"edge {eid} {u} {v}")
    return "\n".join(lines) + "\n"


def _parse_indexed(
    text: str, keyword: str, value: str, noun: str, convert, bad_fields: str
) -> list:
    """Values of ``<keyword> <k> <value>`` lines in order of k, which must be dense 0..n-1.

    ``noun`` names the index in error messages; ``bad_fields`` is the message
    for a line whose k or value does not convert.  Float values must be finite.
    """
    slots: dict = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] != keyword or len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected '{keyword} <k> <{value}>'")
        try:
            k, val = int(parts[1]), convert(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: {bad_fields}") from None
        if isinstance(val, float) and not math.isfinite(val):
            raise GraphFormatError(f"line {lineno}: {noun} value must be finite")
        if k in slots:
            raise GraphFormatError(f"line {lineno}: duplicate {noun} index {k}")
        slots[k] = val
    if sorted(slots) != list(range(len(slots))):
        raise GraphFormatError(f"{noun} indices must be dense 0..|M|-1")
    return [slots[k] for k in range(len(slots))]


def parse_placement(text: str) -> Placement:
    ids = _parse_indexed(text, "sensor", "edge id", "sensor", int, "sensor fields must be integers")
    return Placement(tuple(ids))


def format_placement(placement: Placement) -> str:
    return "".join(f"sensor {k} {eid}\n" for k, eid in enumerate(placement.edge_ids))


def parse_loads(text: str) -> LoadModel:
    nodes: list = []
    means: list[float] = []
    stds: list[float] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] != "load" or len(parts) != 4:
            raise GraphFormatError(f"line {lineno}: expected 'load <vertex> <mean> <stddev>'")
        if parts[1] in nodes:
            raise GraphFormatError(f"line {lineno}: duplicate load vertex {parts[1]!r}")
        try:
            mean, std = float(parts[2]), float(parts[3])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: mean/stddev must be numbers") from None
        if not (math.isfinite(mean) and 0 <= std < math.inf):
            raise GraphFormatError(f"line {lineno}: mean/stddev must be finite, stddev >= 0")
        nodes.append(parts[1])
        means.append(mean)
        stds.append(std)
    if not nodes:
        raise GraphFormatError("load file defines no loads")
    return LoadModel(tuple(nodes), np.array(means), np.array(stds) ** 2)


def format_loads(model: LoadModel) -> str:
    return "".join(
        f"load {node} {mean:.12g} {sd:.12g}\n"
        for node, mean, sd in zip(model.nodes, model.means, model.stddevs)
    )


def parse_observation(text: str) -> np.ndarray:
    values = _parse_indexed(text, "obs", "value", "observation", float, "bad observation fields")
    return np.array(values)


def format_observation(values) -> str:
    return "".join(f"obs {k} {float(v):.12g}\n" for k, v in enumerate(values))


def read_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())


def write_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_graph(graph))


def read_placement(path) -> Placement:
    with open(path) as fh:
        return parse_placement(fh.read())


def write_placement(placement: Placement, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_placement(placement))


def read_loads(path) -> LoadModel:
    with open(path) as fh:
        return parse_loads(fh.read())


def write_loads(model: LoadModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_loads(model))


def read_observation(path) -> np.ndarray:
    with open(path) as fh:
        return parse_observation(fh.read())
