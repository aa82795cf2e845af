"""Command-line entry point.

One binary, subcommand style: graph, character, degenerate, limitset,
dessin, qnet.  Exit codes: 0 success, 1 domain or I/O error (message on
stderr), 2 usage error.  Numeric output is printed with 9 significant
digits and identical invocations produce byte-identical outputs, so runs
can be diffed.

Each subcommand imports the modules it uses when it runs, so a call pays
only for its own imports (numpy is needed by limitset and qnet alone).
`python -m kleinnet` and the `kleinnet` script enter through `run`, library
callers and tests through `main`.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import sys
from typing import TYPE_CHECKING, NoReturn, Sequence

from . import words
from .errors import KleinnetError, SparseWindowError

if TYPE_CHECKING:
    from . import limitset, sl2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_words(spec: str) -> list[words.Word]:
    parts = [p.strip() for p in spec.split(",")]
    if not any(parts):
        raise KleinnetError("empty word list")
    return [words.Word.from_text(p) for p in parts if p]


def _parse_complex(token: str) -> complex:
    cleaned = token.strip().replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise KleinnetError(f"bad complex number {token!r}")


def _parse_floats_csv(spec: str, what: str) -> list[float]:
    try:
        return [float(p) for p in spec.split(",")]
    except ValueError:
        raise KleinnetError(f"bad {what} {spec!r}: expected comma-separated numbers")


# -- graph ---------------------------------------------------------------------


def _cmd_graph(args: argparse.Namespace) -> int:
    from . import netgraph

    net = netgraph.load_network(args.file)
    basis = netgraph.loop_basis(net)
    lines = [
        f"vertices {net.n_vertices}",
        f"edges {net.n_edges}",
        f"components {basis.n_components}",
        f"rank {basis.rank}",
    ]
    for i, eid in enumerate(basis.generators, start=1):
        lines.append(f"generator {words.Word((i,)).text()} edge {eid}")
    if args.walk is not None:
        try:
            steps = [int(p) for p in args.walk.split(",") if p.strip()]
        except ValueError:
            raise KleinnetError(
                f"bad walk {args.walk!r}: expected comma-separated signed edge ids"
            )
        word = netgraph.walk_to_word(net, basis, steps)
        lines.append(f"walk_word {word.text()}")
    print("\n".join(lines))
    return 0


# -- character -----------------------------------------------------------------


def _load_rep(path: str) -> sl2.Representation:
    from . import sl2

    return sl2.make_rep(sl2.load_rep(path))


def _cmd_character(args: argparse.Namespace) -> int:
    from . import sl2

    rep = _load_rep(args.rep)
    if args.echo_rep is not None:
        sl2.save_rep(args.echo_rep, list(rep.images))

    if args.list_classes:
        classes = words.enumerate_classes(rep.rank, args.max_len)
        print("\n".join(classes.words_text()))
        return 0

    if args.moduli:
        point = sl2.moduli_point(rep)
        rows = ["word,re,im"]
        for w, tr in zip(point.words, point.traces):
            rows.append("%s,%.9g,%.9g" % (w.text(), tr.real, tr.imag))
        print("\n".join(rows))
        return 0

    if args.words is not None:
        word_list = _parse_words(args.words)
    elif args.words_file is not None:
        with open(args.words_file, "r", encoding="utf-8") as fh:
            word_list = [
                words.Word.from_text(line.strip())
                for line in fh
                if line.strip() and not line.lstrip().startswith("#")
            ]
    else:
        raise KleinnetError(
            "nothing to do: pass --words, --words-file, --moduli, "
            "or --list-classes"
        )

    header = "word,re,im"
    if args.classify:
        header += ",kind,length"
    if args.theta:
        header += ",theta"
    rows = [header]
    for w in word_list:
        m = sl2.evaluate(rep, w)
        chi = m.trace
        cells = ["%s,%.9g,%.9g" % (w.text(), chi.real, chi.imag)]
        if args.classify:
            iso = sl2.classify(m)
            cells.append(",%s,%.9g" % (iso.kind, iso.translation_length))
        if args.theta:
            cells.append(",%.9g" % sl2.morgan_shalen_coordinate(chi))
        rows.append("".join(cells))
    print("\n".join(rows))
    return 0


# -- degenerate ----------------------------------------------------------------


def _cmd_degenerate(args: argparse.Namespace) -> int:
    from . import degeneration

    family = degeneration.schottky_family()
    t_values = _parse_floats_csv(args.t_values, "parameter list")
    classes = words.enumerate_classes(family.rank, args.max_len)
    vectors = degeneration.sweep(family, classes, t_values)
    csv_text = degeneration.format_sweep_csv(t_values, vectors)
    if args.csv is not None:
        _write_text(args.csv, csv_text)
    else:
        print(csv_text, end="")
    if args.report:
        report = degeneration.tree_limit_check(vectors, classes)
        print(report.to_json())
    return 0


# -- limitset ------------------------------------------------------------------


def _limitset_rep(args: argparse.Namespace) -> sl2.Representation:
    from . import limitset

    if (args.traces is None) == (args.rep is None):
        raise KleinnetError("pass exactly one of --traces or --rep")
    if args.rep is not None:
        if args.other_root:
            raise KleinnetError("--other-root applies only to --traces")
        return _load_rep(args.rep)
    values = [_parse_complex(p) for p in args.traces.split(",")]
    if len(values) in (2, 3):
        return limitset.from_traces(*values, other_root=args.other_root)
    raise KleinnetError("--traces needs two or three comma-separated values")


def _cmd_limitset(args: argparse.Namespace) -> int:
    from . import limitset

    rep = _limitset_rep(args)
    window = limitset.check_window(_parse_floats_csv(args.window, "window"))
    if args.out is not None:
        limitset.check_image_size(args.width, args.height)
    # flags left unset fall back to enumerate_limit_set's own defaults
    options = {"epsilon": args.eps, "max_depth": args.depth, "cap": args.cap}
    cloud = limitset.enumerate_limit_set(
        rep, **{k: v for k, v in options.items() if v is not None}
    )
    if args.out is not None:
        ppm = limitset.render(cloud, args.width, args.height, window)
        with open(args.out, "wb") as fh:
            fh.write(ppm)
    if args.csv is not None:
        limitset.write_cloud_csv(args.csv, cloud)

    radius = max(abs(w) for w in window)
    lines = [
        f"points {len(cloud)}",
        f"truncated {int(cloud.truncated)}",
    ]
    # a statistic with too few points in its window prints no line
    with contextlib.suppress(SparseWindowError):
        lines.append(
            "circle_deviation %.9g" % limitset.circle_deviation(cloud, radius)
        )
    with contextlib.suppress(SparseWindowError):
        lines.append("box_dimension %.9g" % limitset.box_dimension(cloud))
    lines.append("invariance %.9g" % limitset.cloud_group_invariance(cloud, rep))
    print("\n".join(lines))
    return 0


# -- dessin --------------------------------------------------------------------


def _cmd_dessin(args: argparse.Namespace) -> int:
    from . import dessin

    generators = _parse_words(args.subgroup)
    graph = dessin.fold_subgroup(generators)
    sigma_a, sigma_b = dessin.coset_permutations(graph)
    d = dessin.build_dessin(sigma_a, sigma_b)
    dot, summary = dessin.export_dessin(d)
    if args.dot is not None:
        _write_text(args.dot, dot)
    print(f"index {graph.n_vertices}")
    print(summary)
    return 0


# -- qnet ----------------------------------------------------------------------


def _cmd_qnet(args: argparse.Namespace) -> int:
    import numpy as np

    from . import qnet

    if (args.circuit is None) == (args.random_circuit is None):
        raise KleinnetError("pass exactly one of --circuit or --random-circuit")
    if args.circuit is not None:
        if (args.areas, args.seed, args.emit) != (None, None, None):
            raise KleinnetError("--areas, --seed and --emit apply only to --random-circuit")
        with open(args.circuit, "r", encoding="utf-8") as fh:
            text = fh.read()
        state = qnet.run_circuit_text(text)
    else:
        areas = 2 if args.areas is None else args.areas
        seed = 0 if args.seed is None else args.seed
        if seed < 0:
            raise KleinnetError(f"--seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        gates = qnet.random_circuit(rng, areas, args.random_circuit)
        states = [qnet.AreaState(1.0, 0.0)] * areas
        if args.emit is not None:
            _write_text(args.emit, qnet.format_circuit_text(states, gates))
        state = qnet.run_circuit(states, gates)
    csv_text = qnet.format_amplitudes_csv(state)
    if args.out is not None:
        _write_text(args.out, csv_text)
    else:
        print(csv_text, end="")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinnet",
        description="Feedback-loop groups: characters, degenerations, "
        "limit sets, dessins, and circuit simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("graph", help="network file to loop-group generators")
    p.add_argument("--file", required=True, help="network description file")
    p.add_argument("--walk", help="closed walk as comma-separated signed edge ids")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("character", help="characters of words under a representation")
    p.add_argument("--rep", required=True, help="representation file")
    p.add_argument("--words", help="comma-separated words, e.g. 'a,ab,aBA'")
    p.add_argument("--words-file", help="file with one word per line")
    p.add_argument("--classify", action="store_true", help="append isometry kind and length")
    p.add_argument("--theta", action="store_true", help="append log(|chi|+2)")
    p.add_argument("--moduli", action="store_true", help="print the rank-2 trace coordinates")
    p.add_argument("--list-classes", action="store_true", help="list conjugacy classes instead")
    p.add_argument("--max-len", type=int, default=4, help="class length bound for --list-classes")
    p.add_argument("--echo-rep", help="re-save the parsed representation to this path")
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("degenerate", help="projectivized length-vector sweep")
    p.add_argument("--t-values", required=True, help="increasing comma-separated parameters")
    p.add_argument("--max-len", type=int, default=4, help="conjugacy class length bound")
    p.add_argument("--csv", help="write the sweep table here instead of stdout")
    p.add_argument("--report", action="store_true", help="print the convergence report JSON")
    p.set_defaults(func=_cmd_degenerate)

    p = sub.add_parser("limitset", help="sample and analyze a limit set")
    p.add_argument("--traces", help="two or three comma-separated traces, e.g. '3,3' or '3+0.5i,3'")
    p.add_argument("--rep", help="representation file with one or two generators")
    p.add_argument("--other-root", action="store_true", help="use the smaller-modulus solved trace")
    p.add_argument("--eps", type=float, help="resolution target")
    p.add_argument("--depth", type=int, help="word-length cap")
    p.add_argument("--cap", type=int, help="point-count cap")
    p.add_argument("--out", help="write a PPM image here")
    p.add_argument("--csv", help="write the point cloud CSV here")
    p.add_argument("--window", default="-2.2,2.2,-2.2,2.2", help="re_min,re_max,im_min,im_max")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=800)
    p.set_defaults(func=_cmd_limitset)

    p = sub.add_parser("dessin", help="subgroup words to a dessin d'enfant")
    p.add_argument("--subgroup", required=True, help="comma-separated generator words")
    p.add_argument("--dot", help="write Graphviz output here")
    p.set_defaults(func=_cmd_dessin)

    p = sub.add_parser("qnet", help="run an area circuit to amplitudes CSV")
    p.add_argument("--circuit", help="circuit file to run")
    p.add_argument("--random-circuit", type=int, metavar="N", help="generate N random gates instead")
    p.add_argument("--areas", type=int, help="area count for --random-circuit (default 2)")
    p.add_argument("--seed", type=int, help="seed for --random-circuit (default 0)")
    p.add_argument("--emit", help="also write the generated circuit text here")
    p.add_argument("--out", help="write the amplitudes CSV here instead of stdout")
    p.set_defaults(func=_cmd_qnet)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KleinnetError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


def run() -> NoReturn:
    """The process entry: exit with main's code, freezing the heap at exit.

    The interpreter's shutdown runs full collections over every object the
    process holds.  `gc.disable` does not stop them, but objects that
    `gc.freeze` has moved to the permanent generation are never examined
    again.  Unlike `os._exit`, this still runs the atexit handlers, flushes
    the standard streams and tears the modules down; every output file is
    closed by its `with` before main returns.  main itself has no
    process-wide effect, so library callers and tests keep their collector."""
    atexit.register(gc.freeze)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
