"""Transmission workloads: circuits -> .bis bytes -> circuits a caller can iterate.

Every timed encode runs on circuits built for that repetition, so no packed
columns are cached on them (cold); every timed decode ends only after each
decoded body has been iterated (materialized).  The warm encode and the
columns-only decode appear only as traced layer metrics.  The timing does
not use ``quantir.bench.run_transmission_bench``: from its second repetition
on, that harness re-encodes circuits whose columns are already cached.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

from quantir import bis, depth, originir, qasm2
from quantir.bench import random_circuit

from .measure import (Checks, Pace, Result, consume, cycle, input_seeds,
                      median, ratio, settle, tail, wall)
from .trace import LayerSamples, Tracer


@dataclass(frozen=True)
class TransmitSpec:
    name: str
    count: int       # circuits per batch
    qubits: int
    depth: int
    stream: bool     # StreamEncoder/StreamDecoder, uncompressed; else one-shot, compressed


BULK = TransmitSpec("transmit_bulk", count=6, qubits=72, depth=100, stream=False)
STREAM = TransmitSpec("transmit_stream", count=200, qubits=12, depth=20, stream=True)

MIN_REPS = 3
CHUNK = 64 * 1024  # StreamDecoder feed size


def _make_batch(spec: TransmitSpec, seeds) -> list:
    return [random_circuit(spec.qubits, spec.depth, s) for s in seeds]


def _encode(spec: TransmitSpec, batch) -> bytes:
    if not spec.stream:
        return bis.encode(batch, compress=True)
    sink = io.BytesIO()
    enc = bis.StreamEncoder(compress=False, sink=sink)
    for c in batch:
        enc.add(c)
    enc.finish()
    return sink.getvalue()


def _decode_columns(spec: TransmitSpec, data: bytes) -> list:
    if not spec.stream:
        return bis.decode(data)
    view = memoryview(data)
    dec = bis.StreamDecoder()
    out = []
    for i in range(0, len(data), CHUNK):
        out.extend(dec.feed(view[i:i + CHUNK]))
    dec.finish()
    return out


def _decode(spec: TransmitSpec, data: bytes) -> list:
    out = _decode_columns(spec, data)
    consume(out)
    return out


def _same_circuits(want, got, what: str) -> str | None:
    if len(got) != len(want):
        return f"{what}: {len(got)} circuits, expected {len(want)}"
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"{what}: circuit {i} differs"
    return None


def run(spec: TransmitSpec, seed: int, seconds: float,
        tracer: Tracer | None = None) -> tuple[Result, Checks]:
    seeds = input_seeds(spec.name, seed, spec.count)
    res, checks, pace = Result(), Checks(), Pace()
    setup, enc, dec, path = [], [], [], []
    layers, pack, plain_dec = LayerSamples(), [], []
    enc_span = "bis.stream_encode" if spec.stream else "bis.encode"
    dec_span = "bis.stream_decode" if spec.stream else "bis.decode_columns"
    text = out = None
    counts = {"gates": 0, "wire_bytes": 0, "depth_in": 0, "depth_out": 0}
    for rep, _, _ in cycle([None], seconds, MIN_REPS):
        pace.start()
        t, batch = wall(_make_batch, spec, seeds)
        with checks.operation("round trip") as problems:
            if tracer is None:
                te, data = wall(_encode, spec, batch)
                td, out = wall(_decode, spec, data)
                factor = pace.stop()
                te, td = te * factor, td * factor
            else:
                mark = tracer.mark()
                settle()
                with tracer.span(enc_span):
                    data = _encode(spec, batch)
                settle()
                with tracer.span("bis.encode_warm"):
                    _encode(spec, batch)
                settle()
                with tracer.span(dec_span):
                    out = _decode_columns(spec, data)
                with tracer.span("circuit.materialize"):
                    consume(out)
                factor = pace.stop()
                secs = layers.add(tracer.totals(mark)[0], factor)
                pack.append(secs[enc_span] - secs["bis.encode_warm"])
                te = secs[enc_span]
                td = secs[dec_span] + secs["circuit.materialize"]
                plain_dec.append(pace.timed(_decode, spec, data)[0])
            setup.append(t * factor)
            enc.append(te)
            dec.append(td)
            path.append(te + td)
            problems.append(_same_circuits(batch, out, "decode"))
            if rep == 0:
                counts = {"gates": sum(len(c) for c in batch), "wire_bytes": len(data),
                          "depth_in": sum(depth(c) for c in batch),
                          "depth_out": sum(depth(c) for c in out)}
        if rep == 0 and out is not None:
            if spec.stream:
                with checks.operation("stream vs one-shot") as problems:
                    one_shot = bis.decode(data)
                    problems.append(_same_circuits(one_shot, out, "StreamDecoder"))
            if tracer is not None and not spec.stream:
                text = _text_reference(pace, tracer, batch)
        batch = out = data = None

    gates, wire = counts["gates"], counts["wire_bytes"]
    res.record["counts"] = counts
    res.record["pace"] = pace.factors
    if tracer is None:
        e, d = median(enc), median(dec)
        tv, tp, tn = tail(path)
        res.put("setup_s", median(setup), "s", f"median of {len(setup)} batch builds")
        res.put("path_s", median(path), "s",
                f"encode + decode per batch, median of {len(path)}")
        res.line("path_tail_s", tv, "s", f"p{tp:.0f} of {tn} samples")
        res.put("encode_s", e, "s", "cold: circuits never encoded before")
        res.put("decode_s", d, "s", "to every .body iterated")
        res.line("transmit_gates_per_s", ratio(gates, e + d), "1/s",
                 f"{gates} gates per batch")
    else:
        res.put("circuit.pack_s", median(pack), "s", "cold minus warm encode")
        res.put("circuit.materialize_s", layers.median("circuit.materialize"), "s")
        res.put("bis.encode_warm_s", layers.median("bis.encode_warm"), "s",
                "cached columns")
        res.put(f"{dec_span}_s", layers.median(dec_span), "s", "uncached, no .body")
        if spec.stream:
            res.put("bis.stream_encode_s", layers.median(enc_span), "s", "cold")
        res.put("trace.decode_overhead_s", median(dec) - median(plain_dec), "s",
                "traced minus untraced decode")
        if text is not None:
            e, d = median(enc), median(dec)
            for name, secs in text.items():
                res.put(f"{name}_s", secs, "s", "whole batch, text reference")
            for fmt, emit, read in (("originir", "originir.emit", "originir.parse"),
                                    ("qasm2", "qasm2.emit", "qasm2.import")):
                res.put(f"text.{fmt}_emit_over_bis_encode", ratio(text[emit], e), "x",
                        f"{emit} over cold bis.encode")
                res.put(f"text.{fmt}_read_over_bis_decode", ratio(text[read], d), "x",
                        f"{read} over bis.decode with .body iterated")
    res.put("wire_bytes_per_gate", ratio(wire, gates), "B/gate",
            f"{wire} bytes, {gates} gates")
    res.put("depth_ratio", ratio(counts["depth_out"], counts["depth_in"]), "ratio",
            "decoded over sent")
    return res, checks


def _text_reference(pace: Pace, tracer: Tracer, batch) -> dict[str, float]:
    """Reference seconds to write and read the whole batch in each text format."""
    secs = {}

    def step(name, fn):
        pace.start()
        with tracer.span(name):
            out = fn()
        secs[name] = tracer.duration(-1) * pace.stop()
        return out

    oir = step("originir.emit", lambda: [originir.emit(c) for c in batch])
    step("originir.parse", lambda: [originir.parse(t) for t in oir])
    qasm = step("qasm2.emit", lambda: [qasm2.emit_qasm2(c) for c in batch])
    step("qasm2.import", lambda: [qasm2.import_qasm2(t) for t in qasm])
    return secs
