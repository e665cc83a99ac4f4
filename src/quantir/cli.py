"""Command-line surface: convert, transpile, profile, metrics, gen, bench, sim, draw.

Exit codes: 0 success, 1 usage error, 2 data/parse/IO error.  Circuit file
format is chosen by extension (``.oir`` text IR, ``.qasm`` OpenQASM 2 subset
import, ``.bis`` binary stream); ``--format`` overrides detection on the
input side only.  Output files are written to a temporary file and renamed
into place, so failures never leave partial output.  Diagnostics go to
standard error; data goes to files or standard output.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

from . import bench as bench_mod
from . import bis, originir, topology
from .circuit import Circuit
from .draw import draw
from .metrics import circuit_metrics
from .passes import BASES
from .profiler import profile, report_dot, report_gprof
from .qasm2 import import_qasm2
from .sim import simulate, strip_trailing_measures
from .transpile import LEVELS, TranspileConfig, transpile

__all__ = ["app"]

_FORMATS = ("oir", "qasm", "bis")


class _UsageError(Exception):
    """Bad flag combination or unusable path, detected after parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- file plumbing ----------------------------------------------------------------

def _detect_format(path: str, override: str | None) -> str:
    if override:
        return override
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext in _FORMATS:
        return ext
    raise _UsageError(
        f"cannot tell the format of {path!r}; use --format or a "
        f".oir/.qasm/.bis extension")


def _read_circuits(path: str, override: str | None = None) -> list[Circuit]:
    fmt = _detect_format(path, override)
    if fmt == "bis":
        with open(path, "rb") as fh:
            return bis.decode(fh.read())
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return [originir.parse(text) if fmt == "oir" else import_qasm2(text)]


def _read_one(path: str, override: str | None = None) -> Circuit:
    circuits = _read_circuits(path, override)
    if len(circuits) != 1:
        raise ValueError(f"{path} holds {len(circuits)} circuits; "
                         "expected exactly 1")
    return circuits[0]


def _write_atomic(path: str, data) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quantir-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_circuits(path: str, circuits: list[Circuit], compress: bool) -> None:
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext == "bis":
        _write_atomic(path, bis.encode(circuits, compress=compress))
    elif ext == "oir":
        if len(circuits) != 1:
            raise ValueError(f"cannot write {len(circuits)} circuits to a "
                             "text document; expected exactly 1")
        _write_atomic(path, originir.emit(circuits[0]))
    else:
        raise _UsageError(f"output {path!r} must end in .oir or .bis")


def _emit_data(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


# -- subcommands ------------------------------------------------------------------

def _cmd_convert(args) -> int:
    circuits = _read_circuits(args.infile, args.format)
    _write_circuits(args.out, circuits, args.compress)
    return 0


def _load_topology(arg: str) -> topology.CouplingGraph:
    if ":" in arg:
        kind, _, param = arg.partition(":")
        try:
            n = int(param)
        except ValueError:
            raise _UsageError(f"topology {arg!r}: size must be an integer")
        return topology.build(kind, n)
    with open(arg, "r", encoding="utf-8") as fh:
        return topology.CouplingGraph.from_json(fh.read())


def _cmd_transpile(args) -> int:
    circuit = _read_one(args.infile, args.format)
    graph = _load_topology(args.topology)
    config = TranspileConfig(level=args.level, basis=args.basis, seed=args.seed)
    result = transpile(circuit, graph, config)
    if args.out:
        _write_circuits(args.out, [result.circuit], args.compress)
    else:
        sys.stdout.write(originir.emit(result.circuit))
    if args.stats:
        stats = dataclasses.asdict(result.stats)
        stats["initial_layout"] = list(result.initial_layout)
        stats["final_layout"] = list(result.final_layout)
        _write_atomic(args.stats, json.dumps(stats, indent=2) + "\n")
    return 0


def _cmd_profile(args) -> int:
    circuit = _read_one(args.infile, args.format)
    with open(args.times, "r", encoding="utf-8") as fh:
        times = json.load(fh)
    if not isinstance(times, dict):
        raise ValueError(f"{args.times}: time table must be a JSON object")
    report = profile(circuit, times)
    if args.dot:
        _write_atomic(args.dot, report_dot(report))
    if args.gprof:
        _write_atomic(args.gprof, report_gprof(report))
    if not args.dot and not args.gprof:
        sys.stdout.write(report_gprof(report))
    return 0


def _cmd_metrics(args) -> int:
    circuit = _read_one(args.infile, args.format)
    vector = circuit_metrics(circuit)
    _emit_data(args.json, json.dumps(vector.to_dict(), indent=2) + "\n")
    return 0


def _cmd_gen_circuit(args) -> int:
    circuit = bench_mod.random_circuit(args.qubits, args.depth, args.seed)
    if args.out:
        _write_circuits(args.out, [circuit], args.compress)
    else:
        sys.stdout.write(originir.emit(circuit))
    return 0


def _cmd_gen_topology(args) -> int:
    if args.kind == "random":
        graph = topology.random_topology(args.n, seed=args.seed)
    else:
        graph = topology.build(args.kind, args.n)
    _emit_data(args.out, graph.to_json() + "\n")
    return 0


_SWEEP_ALIASES = {"count": "circuit_count", "depth": "circuit_depth",
                  "qubits": "qubit_count"}


def _cmd_bench(args) -> int:
    sweep = _SWEEP_ALIASES.get(args.sweep, args.sweep)
    try:
        values = tuple(int(v) for v in args.values.split(","))
    except ValueError:
        raise _UsageError(f"--values must be comma-separated integers, "
                          f"got {args.values!r}")
    formats = tuple(args.formats.split(",")) if args.formats else bench_mod.FORMATS
    config = bench_mod.BenchConfig(
        sweep=sweep, sweep_values=values, fixed_circuit_count=args.count,
        fixed_depth=args.depth, fixed_qubits=args.qubits, seed=args.seed,
        formats=formats, repetitions=args.reps)
    rows = bench_mod.run_transmission_bench(config)
    if args.csv:
        import io

        buf = io.StringIO()
        bench_mod.write_csv(config, rows, buf)
        _write_atomic(args.csv, buf.getvalue())
    else:
        bench_mod.write_csv(config, rows, sys.stdout)
    return 0


def _cmd_sim(args) -> int:
    circuit = strip_trailing_measures(_read_one(args.infile, args.format))
    state = simulate(circuit)
    doc = {"num_qubits": circuit.num_qubits,
           "amplitudes": [[z.real, z.imag] for z in state]}
    _emit_data(args.json, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_draw(args) -> int:
    circuit = _read_one(args.infile, args.format)
    _emit_data(args.out, draw(circuit))
    return 0


# -- parser -----------------------------------------------------------------------

def _add_input(p: _Parser) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help="input circuit (.oir, .qasm, or .bis)")
    p.add_argument("--format", choices=_FORMATS,
                   help="override input format detection")


def _build_parser() -> _Parser:
    parser = _Parser(prog="quantir",
                     description="Quantum circuit toolkit: text and binary "
                                 "IRs, transpiler, metrics, profiler, bench.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a circuit between formats")
    _add_input(p)
    p.add_argument("--out", required=True, metavar="FILE",
                   help="output circuit (.oir or .bis)")
    p.add_argument("--compress", action="store_true",
                   help="write compact varint indices in .bis output")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("transpile", help="lay out and route onto a topology")
    _add_input(p)
    p.add_argument("--topology", required=True, metavar="JSON|kind:n",
                   help="coupling graph: a JSON file, or linear:6, square:9, "
                        "full:5, heavy_hex:3")
    p.add_argument("--level", type=int, choices=LEVELS, default=1)
    p.add_argument("--basis", choices=BASES, default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE",
                   help="routed circuit (.oir or .bis); default stdout IR")
    p.add_argument("--compress", action="store_true")
    p.add_argument("--stats", metavar="FILE", help="write stats JSON here")
    p.set_defaults(fn=_cmd_transpile)

    p = sub.add_parser("profile", help="flow profile under a gate-time table")
    _add_input(p)
    p.add_argument("--times", required=True, metavar="JSON",
                   help='per-gate durations, e.g. {"H": 40, "CNOT": 200}')
    p.add_argument("--dot", metavar="FILE", help="write DOT call graph here")
    p.add_argument("--gprof", metavar="FILE", help="write text report here")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("metrics", help="five normalized structure metrics")
    _add_input(p)
    p.add_argument("--json", metavar="FILE", help="output path; default stdout")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("gen", help="generate circuits or topologies")
    gen_sub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)
    g = gen_sub.add_parser("circuit", help="seeded random circuit")
    g.add_argument("--qubits", type=int, required=True)
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", metavar="FILE",
                   help="output (.oir or .bis); default stdout IR")
    g.add_argument("--compress", action="store_true")
    g.set_defaults(fn=_cmd_gen_circuit)
    g = gen_sub.add_parser("topology", help="named coupling graph as JSON")
    g.add_argument("--kind", required=True,
                   choices=("linear", "square", "full", "random", "heavy_hex"))
    g.add_argument("--n", type=int, required=True,
                   help="qubit count (code distance for heavy_hex)")
    g.add_argument("--seed", type=int, default=0, help="random kind only")
    g.add_argument("--out", metavar="FILE", help="output path; default stdout")
    g.set_defaults(fn=_cmd_gen_topology)

    p = sub.add_parser("bench", help="transmission benchmark sweep to CSV")
    p.add_argument("--sweep", required=True,
                   choices=tuple(_SWEEP_ALIASES) + bench_mod.SWEEPS)
    p.add_argument("--values", required=True, metavar="A,B,...",
                   help="comma-separated sweep values")
    default = {f.name: f.default
               for f in dataclasses.fields(bench_mod.BenchConfig)}
    p.add_argument("--count", type=int, default=default["fixed_circuit_count"],
                   help="fixed circuit count (default %(default)s)")
    p.add_argument("--depth", type=int, default=default["fixed_depth"],
                   help="fixed circuit depth (default %(default)s)")
    p.add_argument("--qubits", type=int, default=default["fixed_qubits"],
                   help="fixed qubit count (default %(default)s)")
    p.add_argument("--seed", type=int, default=default["seed"],
                   help="seed of the batch seeds (default %(default)s)")
    p.add_argument("--formats", metavar="A,B,...",
                   help=f"subset of {','.join(bench_mod.FORMATS)}; default all")
    p.add_argument("--reps", type=int, default=default["repetitions"],
                   help="repetitions per point (default %(default)s)")
    p.add_argument("--csv", metavar="FILE", help="output path; default stdout")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("sim", help="statevector of a small circuit as JSON")
    _add_input(p)
    p.add_argument("--json", metavar="FILE", help="output path; default stdout")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("draw", help="ASCII wire diagram")
    _add_input(p)
    p.add_argument("--out", metavar="FILE", help="output path; default stdout")
    p.set_defaults(fn=_cmd_draw)

    return parser


def app(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.fn(args)
    except _UsageError as e:
        print(f"quantir: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"quantir: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(app())
