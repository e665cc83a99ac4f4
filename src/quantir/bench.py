"""Transmission benchmark: serialization cost across formats and scales.

``random_circuit`` builds reproducible random circuits layer by layer: every
layer covers all qubits, so the greedy circuit depth equals the requested
layer count exactly.  Each placement decision is 70% a one-qubit gate
(uniform over H, X, Y, Z, S, T, X1, RX, RY, RZ; angles uniform in [0, 2*pi))
and 30% a two-qubit gate (uniform over CNOT, CZ, SWAP on a random distinct
pair), falling back to one-qubit when a single free qubit remains.  No
measurements are generated.

``run_transmission_bench`` sweeps one of circuit count, circuit depth, or
qubit count while holding the other two fixed, and for every (value, format)
pair times whole-batch encode (circuit objects -> transmitted bytes) and
decode (bytes -> circuit objects whose bodies have all been iterated),
reporting the median over repetitions plus the serialized size and total
gate count.  Every repetition encodes a batch freshly built from the same
seeds, outside the timer: the binary formats encode the packed columns the
generator wrote, and the text formats first build each ``.body`` from them,
which no earlier repetition has done.  After the last repetition, outside
the timers, the decoded batch must equal the encoded one for both binary
modes and the text IR; QASM output rewrites gates by design (u1/u2/u3
forms, SWAP as three ``cx``), so for it only the circuit count is checked.
Text formats serialize one UTF-8 document per circuit; the binary formats
use a single multi-circuit stream.  Timing runs single-threaded so points
are comparable.
"""
from __future__ import annotations

import csv
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass

from . import bis, originir
from .circuit import Circuit, _Columns
from .gates import CLS_ROT, GateKind
from .qasm2 import emit_qasm2, import_qasm2

__all__ = [
    "SWEEPS", "FORMATS", "BenchError", "BenchConfig", "BenchRow",
    "CSV_HEADER", "random_circuit", "run_transmission_bench", "write_csv",
]

SWEEPS = ("circuit_count", "circuit_depth", "qubit_count")
FORMATS = ("bis_compressed", "bis_uncompressed", "originir", "qasm2")
CSV_HEADER = ("sweep", "value", "format", "encode_s", "decode_s",
              "size_bytes", "gate_count")

_TAU = 6.283185307179586

_ONE_Q = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
          GateKind.T, GateKind.X1, GateKind.RX, GateKind.RY, GateKind.RZ)
_TWO_Q = (GateKind.CNOT, GateKind.CZ, GateKind.SWAP)
_ONE_Q_CODES = tuple(k._value_ for k in _ONE_Q)
_TWO_Q_CODES = tuple(k._value_ for k in _TWO_Q)
_ONE_Q_ROT = tuple(k.opclass == CLS_ROT for k in _ONE_Q)


class BenchError(ValueError):
    """Invalid benchmark configuration."""


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run: a sweep axis, its values, and fixed parameters."""

    sweep: str
    sweep_values: tuple[int, ...]
    fixed_circuit_count: int = 500
    fixed_depth: int = 500
    fixed_qubits: int = 72
    seed: int = 0
    formats: tuple[str, ...] = FORMATS
    repetitions: int = 5

    def __post_init__(self):
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "formats", tuple(self.formats))
        if self.sweep not in SWEEPS:
            raise BenchError(f"unknown sweep {self.sweep!r}; "
                             f"expected one of {', '.join(SWEEPS)}")
        if not self.sweep_values:
            raise BenchError("sweep_values must be non-empty")
        for v in self.sweep_values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise BenchError(f"sweep values must be positive integers, got {v!r}")
        for field in ("fixed_circuit_count", "fixed_depth", "fixed_qubits"):
            if getattr(self, field) < 1:
                raise BenchError(f"{field} must be >= 1")
        if not self.formats:
            raise BenchError("formats must be non-empty")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise BenchError(f"unknown format {fmt!r}; "
                                 f"expected a subset of {', '.join(FORMATS)}")
        if len(set(self.formats)) != len(self.formats):
            raise BenchError("duplicate format")
        if self.repetitions < 3:
            raise BenchError("repetitions must be >= 3 (medians need them)")


@dataclass(frozen=True)
class BenchRow:
    """One measured point: medians over the configured repetitions."""

    sweep_value: int
    format: str
    encode_time: float
    decode_time: float
    post_encoding_size: int
    gate_count: int


def random_circuit(num_qubits: int, depth: int, seed: int = 0) -> Circuit:
    """Reproducible random circuit whose greedy depth is exactly ``depth``.

    The gates go straight into packed columns; the circuit holds no
    ``Instruction`` until its ``.body`` is read.  Every integer is drawn by
    ``_randbelow`` and every float by ``random()`` of one
    ``random.Random(seed)``, so the output for a seed depends on
    ``getrandbits`` and ``random`` alone.
    """
    if num_qubits < 1:
        raise BenchError("num_qubits must be >= 1")
    if depth < 1:
        raise BenchError("depth must be >= 1")
    rng = random.Random(seed)
    rand, bits = rng.random, rng.getrandbits
    code: list[int] = []
    a: list[int] = []
    b: list[int] = []
    params: list[float] = []
    code_app, a_app, b_app, param_app = (code.append, a.append, b.append,
                                         params.append)
    order = list(range(num_qubits))
    for _ in range(depth):
        # random.shuffle: a descending Fisher-Yates
        for i in range(num_qubits - 1, 0, -1):
            j = _randbelow(bits, i + 1)
            order[i], order[j] = order[j], order[i]
        i = 0
        while i < num_qubits:
            if num_qubits - i >= 2 and rand() >= 0.7:
                j = i + 1 + _randbelow(bits, num_qubits - i - 1)
                order[i + 1], order[j] = order[j], order[i + 1]
                code_app(_TWO_Q_CODES[_randbelow(bits, 3)])
                a_app(order[i])
                b_app(order[i + 1])
                i += 2
            else:
                k = _randbelow(bits, 10)
                code_app(_ONE_Q_CODES[k])
                a_app(order[i])
                b_app(-1)
                if _ONE_Q_ROT[k]:
                    # uniform(0.0, _TAU) returns 0.0 + (_TAU - 0.0) * random(),
                    # which is this product bit for bit
                    param_app(_TAU * rand())
                i += 1
    return Circuit._from_columns(num_qubits, num_qubits,
                                 _Columns.from_lists(code, a, b, params, []))


def _randbelow(getrandbits, n: int) -> int:
    # random.Random._randbelow, which randrange and shuffle draw through
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# -- format codecs ----------------------------------------------------------------

def _encode_bis_compressed(batch):
    return bis.encode(batch, compress=True)


def _encode_bis_uncompressed(batch):
    return bis.encode(batch, compress=False)


def _encode_originir(batch):
    return [originir.emit(c).encode("utf-8") for c in batch]


def _decode_originir(docs):
    return [originir.parse(d.decode("utf-8")) for d in docs]


def _encode_qasm2(batch):
    return [emit_qasm2(c).encode("utf-8") for c in batch]


def _decode_qasm2(docs):
    return [import_qasm2(d.decode("utf-8")) for d in docs]


_CODECS = {
    "bis_compressed": (_encode_bis_compressed, bis.decode),
    "bis_uncompressed": (_encode_bis_uncompressed, bis.decode),
    "originir": (_encode_originir, _decode_originir),
    "qasm2": (_encode_qasm2, _decode_qasm2),
}


# formats whose decode reproduces the encoded circuits exactly
_EXACT = frozenset({"bis_compressed", "bis_uncompressed", "originir"})


def _payload_size(payload) -> int:
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return sum(len(doc) for doc in payload)


# -- harness ----------------------------------------------------------------------

def run_transmission_bench(config: BenchConfig) -> list[BenchRow]:
    """Measure encode/decode time and size for every (sweep value, format)."""
    rng = random.Random(config.seed)
    rows: list[BenchRow] = []
    for value in config.sweep_values:
        count = value if config.sweep == "circuit_count" else config.fixed_circuit_count
        depth = value if config.sweep == "circuit_depth" else config.fixed_depth
        qubits = value if config.sweep == "qubit_count" else config.fixed_qubits
        seeds = [rng.randrange(2 ** 63) for _ in range(count)]
        for fmt in config.formats:
            encode, decode = _CODECS[fmt]
            enc_times, dec_times = [], []
            payload = decoded = None
            for _ in range(config.repetitions):
                # fresh circuits every time: each encode starts from the
                # columns the generator wrote, no .body built yet
                batch = [random_circuit(qubits, depth, s) for s in seeds]
                t0 = time.perf_counter()
                payload = encode(batch)
                t1 = time.perf_counter()
                decoded = decode(payload)
                for c in decoded:
                    deque(c.body, maxlen=0)
                t2 = time.perf_counter()
                enc_times.append(t1 - t0)
                dec_times.append(t2 - t1)
            if len(decoded) != count:
                raise BenchError(f"{fmt} round trip lost circuits")
            if fmt in _EXACT and decoded != batch:
                raise BenchError(f"{fmt} round trip changed a circuit")
            rows.append(BenchRow(value, fmt, statistics.median(enc_times),
                                 statistics.median(dec_times),
                                 _payload_size(payload),
                                 sum(len(c) for c in batch)))
    return rows


def write_csv(config: BenchConfig, rows, out) -> None:
    """Write rows as CSV to the text stream ``out``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([config.sweep, row.sweep_value, row.format,
                         repr(row.encode_time), repr(row.decode_time),
                         row.post_encoding_size, row.gate_count])
