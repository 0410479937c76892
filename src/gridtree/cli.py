"""Command-line front end.

One parser serves every ``main`` call in a process: it is built on the
first call, not at import, and parsing leaves it unchanged.

Exit status: 0 on success, 1 on usage problems (bad or conflicting flags,
unknown detector names, missing or unparseable input files), 2 on
model/validity errors (invalid placement, inconsistent observation, ...).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import fileio
from .detect import (
    DETECTOR_NAMES,
    DETECTORS,
    detect_enumeration_oracle,
    local_map_search,
)
from .errors import GraphFormatError, GridTreeError
from .fixture import build_island_fixture
from .graph import enumerate_spanning_trees
from .placement import enumerate_valid_placements, is_valid_placement
from .simulate import ExperimentConfig, evaluate_placements, run_stochastic_sweep


class _UsageError(Exception):
    """Flags that parse but do not fit together; reported with exit status 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(least):
    """An argparse type: a finite number at least ``least``, an int if ``least`` is one."""
    kind = "an integer" if isinstance(least, int) else "a finite number"

    def convert(text: str):
        try:
            value = type(least)(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None
        if not least <= value < math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be {kind} >= {least}, got {text}")
        return value

    return convert


_count, _seed, _noise = _at_least(1), _at_least(0), _at_least(0.0)


def _noise_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(map(_noise, text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers >= 0, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gridtree",
        description="Spanning-tree topology detection for switched feeders.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text):
        return sub.add_parser(name, help=help_text, description=help_text)

    p = add("fixture", "Write the built-in island benchmark graph (and optionally its loads).")
    p.add_argument("--out", required=True, help="graph file to write")
    p.add_argument("--loads", help="also write the default load file here")

    p = add("trees", "List spanning trees, one line of edge ids per tree.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--require-tau", action="store_true",
                   help="only trees containing every root-incident edge")
    p.add_argument("--out", help="output file (default: stdout)")

    p = add("placements", "List minimal valid sensor placements, one line per placement.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--require-tau", action="store_true",
                   help="exclude root-incident edges from the placements")
    p.add_argument("--out", help="output file (default: stdout)")

    p = add("check-placement", "Check whether removing the measured edges leaves a spanning tree.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--placement", required=True, help="placement file")

    p = add("detect", "Run one detector on a single observation.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--loads", required=True, help="load forecast file")
    p.add_argument("--placement", required=True, help="placement file")
    p.add_argument("--obs", required=True, help="observation file")
    p.add_argument("--method", default="map", choices=DETECTOR_NAMES, help="detector to run")
    p.add_argument("--local-search", action="store_true",
                   help="refine the result over basis-preserving exchanges")
    p.add_argument("--sigma", type=_noise,
                   help="override every node's forecast stddev with this value "
                        "(read by the likelihood detectors and --local-search; "
                        "deterministic and enum read only the means)")
    p.add_argument("--require-tau", action="store_true",
                   help="restrict hypotheses to trees containing the root edges")
    p.add_argument("--out", help="write the result as a CSV row here")

    p = add("sweep", "Monte Carlo missed-detection sweep over noise levels.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--loads", required=True, help="load forecast file")
    p.add_argument("--placement", required=True, help="placement file")
    p.add_argument("--sigma", type=_noise, help="single noise level")
    p.add_argument("--sigma-grid", type=_noise_grid, help="comma-separated noise levels")
    p.add_argument("--cv", action="store_true",
                   help="interpret noise levels as percent of each node's mean")
    p.add_argument("--trials", type=_count, default=1000, help="trials per (tree, sigma) cell")
    p.add_argument("--seed", type=_seed, default=0, help="base RNG seed")
    p.add_argument("--method", default="map", help="comma-separated detector list")
    p.add_argument("--local-search", action="store_true",
                   help="post-process every detector with the local neighborhood search")
    p.add_argument("--require-tau", action="store_true",
                   help="hypothesis trees must contain the root edges")
    p.add_argument("--workers", type=_count, default=1, help="parallel workers")
    p.add_argument("--out", required=True, help="CSV output file")

    p = add("rank-placements", "Score every minimal valid placement by mean/max miss rate.")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--loads", required=True, help="load forecast file")
    p.add_argument("--sigma", type=_noise, help="absolute noise level")
    p.add_argument("--cv", type=_noise, help="noise as percent of each node's mean")
    p.add_argument("--trials", type=_count, default=200, help="trials per (tree, placement) cell")
    p.add_argument("--seed", type=_seed, default=0, help="base RNG seed")
    p.add_argument("--method", default="map", choices=DETECTOR_NAMES, help="detector to score")
    p.add_argument("--require-tau", action="store_true",
                   help="restrict trees and placements by the root edges")
    p.add_argument("--workers", type=_count, default=1, help="parallel workers")
    p.add_argument("--out", required=True, help="ranking CSV output file")
    p.add_argument("--report-out", help="also write the per-tree sweep CSV here")

    return parser


def _emit(lines, out_path):
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph_and_model(args):
    graph = fileio.read_graph(args.graph)
    model = fileio.read_loads(args.loads)
    return graph.with_load_vertices(model.nodes), model


def _restriction(graph, args):
    return graph.root_edges() if getattr(args, "require_tau", False) else frozenset()


def _cmd_fixture(args) -> int:
    fx = build_island_fixture()
    fileio.write_graph(fx.graph, args.out)
    if args.loads:
        fileio.write_loads(fx.load_model, args.loads)
    return 0


def _cmd_trees(args) -> int:
    graph = fileio.read_graph(args.graph)
    trees = enumerate_spanning_trees(graph, _restriction(graph, args))
    _emit((t.label() for t in trees), args.out)
    return 0


def _cmd_placements(args) -> int:
    graph = fileio.read_graph(args.graph)
    family = enumerate_valid_placements(graph, _restriction(graph, args))
    _emit((p.label() for p in family), args.out)
    return 0


def _cmd_check_placement(args) -> int:
    graph = fileio.read_graph(args.graph)
    placement = fileio.read_placement(args.placement)
    if is_valid_placement(graph, placement):
        print("valid")
        return 0
    print("invalid")
    return 2


def _cmd_detect(args) -> int:
    method = args.method
    if method == "enum" and args.local_search:
        raise _UsageError("--local-search needs a detector that returns one tree, not enum")
    if args.sigma is not None and method in ("deterministic", "enum") and not args.local_search:
        raise _UsageError(f"--sigma has no effect on --method {method}, which reads only the forecast means")
    graph, model = _load_graph_and_model(args)
    if args.sigma is not None:
        model = model.with_stddev(args.sigma)
    placement = fileio.read_placement(args.placement)
    obs = fileio.read_observation(args.obs)
    restriction = _restriction(graph, args)
    if method == "enum":  # prints every hit, not one tree
        hits = detect_enumeration_oracle(graph, placement, model.means, obs, restriction)
        labels = [t.label() for t in hits]
        _emit(labels, None)
        if args.out:
            _emit(labels, args.out)
        return 0
    result = DETECTORS[method](graph, placement, model, obs, restriction, None)
    if args.local_search:
        result = local_map_search(graph, placement, model, obs, result.tree, required_edges=restriction)
    print(result.tree.label())
    if args.out:
        row = ",".join(str(c) for c in result.csv_row())
        _emit(["method,tree,log_likelihood,iterations,converged", row], args.out)
    return 0


def _sigma_list(args) -> tuple[float, ...]:
    if args.sigma_grid and args.sigma is not None:
        raise _UsageError("give one of --sigma / --sigma-grid, not both")
    if args.sigma_grid:
        return args.sigma_grid
    if args.sigma is not None:
        return (args.sigma,)
    raise _UsageError("one of --sigma / --sigma-grid is required")


def _cmd_sweep(args) -> int:
    detectors = tuple(args.method.split(","))
    unknown = [d for d in detectors if d not in DETECTOR_NAMES]
    if unknown:
        raise _UsageError(
            f"unknown --method {', '.join(unknown)}; choose from {', '.join(DETECTOR_NAMES)}"
        )
    graph, model = _load_graph_and_model(args)
    placement = fileio.read_placement(args.placement)
    config = ExperimentConfig(
        graph=graph,
        load_model=model,
        placements=(placement,),
        sigmas=_sigma_list(args),
        trials=args.trials,
        detectors=detectors,
        seed=args.seed,
        restriction=_restriction(graph, args),
        sigma_mode="cv" if args.cv else "absolute",
        local_search=args.local_search,
    )
    report = run_stochastic_sweep(config, workers=args.workers)
    report.write_csv(args.out)
    return 0


def _cmd_rank_placements(args) -> int:
    if (args.sigma is None) == (args.cv is None):
        raise _UsageError("exactly one of --sigma / --cv is required")
    graph, model = _load_graph_and_model(args)
    sigma = args.sigma if args.sigma is not None else args.cv
    restriction = _restriction(graph, args)
    family = enumerate_valid_placements(graph, restriction)
    ranking, report = evaluate_placements(
        graph,
        family,
        model,
        sigma=sigma,
        trials=args.trials,
        detector=args.method,
        seed=args.seed,
        restriction=restriction,
        sigma_mode="cv" if args.cv is not None else "absolute",
        workers=args.workers,
    )
    ranking.write_csv(args.out)
    if args.report_out:
        report.write_csv(args.report_out)
    return 0


_COMMANDS = {
    "fixture": _cmd_fixture,
    "trees": _cmd_trees,
    "placements": _cmd_placements,
    "check-placement": _cmd_check_placement,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "rank-placements": _cmd_rank_placements,
}


@functools.cache
def _shared_parser() -> _Parser:
    """``build_parser()``, built on the first ``main`` call and reused: parsing
    leaves the parser as it was, and building it costs more than most calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"gridtree: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except (_UsageError, GraphFormatError) as exc:
        print(f"gridtree: {exc}", file=sys.stderr)
        return 1
    except GridTreeError as exc:
        print(f"gridtree: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:  # console-script hook
    raise SystemExit(main())
