"""Binary instruction stream codec.

Stream layout (all multi-byte scalars little-endian)::

    magic "OBIS" | version u8 | flags u8 | reserved u8 x2 | circuit_count varint
    per circuit: num_qubits varint | num_cbits varint | instruction_count varint
                 | records...

Flags: bit 0 selects compressed operand encoding; all other flag bits and the
reserved octets must be zero.  Varints are unsigned LEB128, at most 5 octets,
value below 2**32; non-minimal (padded) encodings are accepted.

A record is an opcode byte followed by its operands.  Qubit/cbit indices are
u32 in uncompressed mode and varints in compressed mode; angles are always
raw 8-byte doubles.  BARRIER stores a qubit-count varint (both modes) before
its indices.  Record sizes, uncompressed: plain 1q 5, rotation 13, U3 29,
two-qubit 9, measure 9; compressed with 1-byte varints: 2, 10, 26, 3, 3.

Encode and decode run on the packed column form of flat circuits.  A
record-layout table gives each mode's fixed-size record shape (u32 index
fields, or one-byte varints), so one encoder and one gatherer serve both
modes: offsets are computed for all records up front and fields move as
bulk array copies.  The encoder works over a group of circuits: their
columns are concatenated, checked and laid out in one pass, and each
circuit's header and slice of the records are appended in turn.
:func:`encode` and :class:`StreamEncoder` close a group once its
circuits hold 4,096 rows, so a circuit that long closes the group it
joins.  Barriers and compressed indices >= 128 are laid out in the same
pass, each such field sized by its varint's octets.  The gather takes
where each record starts and checks the fixed shape (any multi-byte
varint exposes a continuation bit at a checked position) and every
operand, each row against its own circuit's register widths.
:func:`decode` finds those offsets by walking one circuit at a time,
assuming the fixed shape; :class:`StreamDecoder`'s scan records them as it
sizes each circuit, so one gather serves every circuit a feed completes
without a second walk.  If a batch fails, its circuits are
decoded one by one as :func:`decode` would; circuits that don't fit --
barriers, compressed indices >= 128, padded varints -- or that hold any bad
operand take a careful per-record path.  Every malformed input raises a
:class:`BisDecodeError` subclass carrying the byte ``offset`` of the first
fault in byte order.

:func:`decode` and :class:`StreamDecoder` share this gatherer and this
fallback, so both readers raise the same error at the same offset.  The
stream decoder itself only sizes circuits as bytes arrive; it reports a
circuit's operand errors once that circuit is complete, or at
:meth:`StreamDecoder.finish`, rather than when the bad record arrives.

Each reader owns one table of parameter-free instructions (1Q, 2Q,
MEASURE): one per :func:`decode` call, one per :class:`StreamDecoder` for
its lifetime.  Equal such rows in any of the circuits it returns are the
same immutable :class:`~quantir.circuit.Instruction` once their bodies are
materialized; separate reads share none.
"""
from __future__ import annotations

import math
import struct
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, _Columns, flatten
from .gates import KIND_BY_OPCODE, PARAM_COUNT

__all__ = [
    "encode", "decode", "StreamEncoder", "StreamDecoder",
    "BisEncodeError", "BisDecodeError", "BadMagic", "UnsupportedVersion",
    "ReservedBits", "Truncated", "UnknownOpcode", "VarintTooLong",
    "BadOperand", "TrailingBytes",
]

MAGIC = b"OBIS"
VERSION = 1
FLAG_COMPRESSED = 0x01
_HEADER_LEN = 8  # magic + version + flags + 2 reserved octets
_U32_MAX = (1 << 32) - 1


class BisEncodeError(ValueError):
    """Circuit cannot be represented in the stream format."""


class BisDecodeError(ValueError):
    """Malformed stream; ``offset`` is the byte position of the fault, and
    ``message`` the text without it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


class BadMagic(BisDecodeError):
    pass


class UnsupportedVersion(BisDecodeError):
    pass


class ReservedBits(BisDecodeError):
    pass


class Truncated(BisDecodeError):
    pass


class UnknownOpcode(BisDecodeError):
    pass


class VarintTooLong(BisDecodeError):
    pass


class BadOperand(BisDecodeError):
    pass


class TrailingBytes(BisDecodeError):
    pass


# -- varints ------------------------------------------------------------------

def _write_varint(out: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _write_varint_padded5(out: bytearray, v: int) -> None:
    out.append((v & 0x7F) | 0x80)
    out.append(((v >> 7) & 0x7F) | 0x80)
    out.append(((v >> 14) & 0x7F) | 0x80)
    out.append(((v >> 21) & 0x7F) | 0x80)
    out.append((v >> 28) & 0x7F)


def _read_varint(data, o: int, end: int) -> tuple[int, int]:
    start = o
    val = 0
    shift = 0
    for _ in range(5):
        if o >= end:
            raise Truncated("varint runs past end of data", o)
        byte = data[o]
        o += 1
        val |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if val > _U32_MAX:
                raise VarintTooLong("varint value exceeds 32 bits", start)
            return val, o
        shift += 7
    raise VarintTooLong("varint longer than 5 octets", start)


# -- record layouts -----------------------------------------------------------

_BARRIER = 0xA0
# per opcode class: index fields and angle bytes; class 5 (barrier) has no fixed shape
_NIDX_BY_CLASS = np.array([1, 1, 1, 2, 2, 0, 0, 0], dtype=np.int64)
_ANGLE_BYTES_BY_CLASS = np.array(
    [8 * PARAM_COUNT.get(c, 0) for c in range(8)], dtype=np.int64)


class _Layout(NamedTuple):
    """Fixed-size record shape of one mode.

    The opcode is at 0, the first index at 1, the second index or the angles
    at ``1 + width``.  The shape holds only indices below ``limit``.
    """

    itype: str          # index field dtype
    width: int          # bytes per index field
    limit: int
    lens: np.ndarray    # record length by opcode class, 0 = no fixed size
    step: list          # record length by opcode, 0 = barrier or unknown opcode
    steps: np.ndarray   # step as an array, for the gather's vector check
    span: list          # step, with 0 made longer than any buffer
    varints: list       # index varints by opcode (compressed mode only)


def _layout(itype: str, limit: int, compress: bool) -> _Layout:
    width = np.dtype(itype).itemsize
    lens = np.where(_NIDX_BY_CLASS > 0,
                    1 + width * _NIDX_BY_CLASS + _ANGLE_BYTES_BY_CLASS, 0)
    step = [0] * 256
    varints = [0] * 256
    for op in KIND_BY_OPCODE:
        step[op] = int(lens[op >> 5])
        varints[op] = int(_NIDX_BY_CLASS[op >> 5]) if compress else 0
    span = [n or 1 << 62 for n in step]
    return _Layout(itype, width, limit, lens, step, np.array(step), span,
                   varints)


# indexed by the compressed flag; a compressed index below 128 is one octet
_LAYOUTS = (_layout("<u4", 1 << 32, False), _layout("u1", 128, True))

_UNPACK_U32 = struct.Struct("<I").unpack_from
_UNPACK_D = struct.Struct("<d").unpack_from
_UNPACK_3D = struct.Struct("<ddd").unpack_from


def _angle_bytes(starts, cls):
    """Positions of every angle byte, in record order, given where each
    record's angles start and the records' opcode classes."""
    n = _ANGLE_BYTES_BY_CLASS[cls]
    ends = np.cumsum(n)
    first = np.repeat(starts - (ends - n), n)
    return first + np.arange(len(first))


# -- encoding -----------------------------------------------------------------

# a group of pending circuits closes once it holds this many rows: enough
# that numpy's per-call overhead is paid once for many small circuits
_GROUP_ROWS = 4096


def _snapshot(c: Circuit) -> tuple[int, int, _Columns]:
    """``(num_qubits, num_cbits, columns)`` of the flat circuit, as encoded.

    A later change to ``c`` does not reach the snapshot: appending replaces
    a circuit's columns, and nothing writes into column arrays.
    """
    flat = flatten(c)
    if flat.num_qubits > _U32_MAX or flat.num_cbits > _U32_MAX:
        raise BisEncodeError("register width exceeds 32 bits")
    cols = flat._columns()
    if len(cols) > _U32_MAX:
        raise BisEncodeError("instruction count exceeds 32 bits")
    return flat.num_qubits, flat.num_cbits, cols


def _encode_group(out: bytearray, group: list, compress: bool) -> None:
    """Append each snapshot's circuit header and records to ``out``.

    The records of the whole group are checked and laid out in one
    vectorized pass.  Each record takes its mode's fixed shape, unless the
    group holds a barrier or a compressed index >= 128: then each field
    (index or barrier count) takes the layout's width or its varint's
    octets, and one scatter writes every field's octets.
    """
    if len(group) == 1:
        cols = group[0][2]
        code, a, b, params = cols.code, cols.a, cols.b, cols.params
    else:
        code, a, b, params = (np.concatenate(col) for col in zip(
            *((c.code, c.a, c.b, c.params) for _, _, c in group)))
    n = len(code)
    layout = _LAYOUTS[compress]
    w = layout.width
    cls = code >> 5
    two = cls >= 3
    bar = cls == 5
    la = w  # bytes of each record's first field
    # b is -1 where a record has no second index
    sized = n and (bar.any() or max(a.max(), b.max()) >= layout.limit)
    if sized:
        # every field: the first index or a barrier's count (a varint in
        # both modes), the second indices, then the barriers' indices
        two[bar] = False  # a barrier (class 5) has no second index
        extra = np.concatenate([c.extra for _, _, c in group])
        vals = np.concatenate((a, b[two], extra))
        nb = len(vals) - len(extra)
        var = np.zeros(len(vals), dtype=bool)
        var[:n] = bar
        var |= compress
        vint = vals[var]
        size = np.full(len(vals), w)
        # a varint's octets: one, and one more for each of 2**7, 2**14,
        # 2**21 and 2**28 that its value reaches
        size[var] = 1 + sum(vint >= 1 << s for s in (7, 14, 21, 28))
        la = size[:n]
        # the bytes of the barriers' indices before each one, and each
        # barrier's first index
        cnt = a[bar]
        pool = np.zeros(len(extra) + 1, dtype=np.int64)
        np.cumsum(size[nb:], out=pool[1:])
        first = np.cumsum(cnt) - cnt
        lens = 1 + la + _ANGLE_BYTES_BY_CLASS[cls]
        lens[two] += size[n:nb]
        lens[bar] += pool[first + cnt] - pool[first]
    # where each record starts, then where the last one ends.  A fixed
    # shape's lengths stay a temporary: held, they cost the scatters below
    # a few percent in fresh memory
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens if sized else layout.lens[cls], out=starts[1:])
    offs = starts[:-1]
    buf = np.zeros(int(starts[-1]), dtype=np.uint8)
    buf[offs] = code
    if sized:
        # each field's start (a barrier's indices follow its count), then
        # its k-th octet: a varint's k-th 7-bit group with a continuation
        # bit if more follow, or a u32's k-th byte
        at = np.concatenate((offs + 1, offs[two] + 1 + la[two], np.repeat(
            offs[bar] + 1 + la[bar] - pool[first], cnt) + pool[:-1]))
        row = np.repeat(np.arange(len(vals)), size)
        k = np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size)
        u32 = ~var[row]
        g = vals[row] >> (7 + u32) * k
        buf[at[row] + k] = np.where(u32, g & 0xFF, g & 0x7F | (g > 0x7F) << 7)
    else:
        field = 1 + np.arange(w)
        buf[offs[:, None] + field] = a.astype(layout.itype).view(np.uint8).reshape(n, w)
        buf[offs[two][:, None] + w + field] = (
            b[two].astype(layout.itype).view(np.uint8).reshape(-1, w))
    buf[_angle_bytes(offs + 1 + la, cls)] = (
        params.astype("<f8", copy=False).view(np.uint8))
    view = buf.data
    if len(group) == 1:
        bodies = [view]
    else:
        # where each circuit's records start, then where the last one ends
        cut = starts[list(accumulate((len(c) for _, _, c in group),
                                     initial=0))].tolist()
        bodies = [view[cut[k]:cut[k + 1]] for k in range(len(group))]
    for (nq, nc, cols), body in zip(group, bodies):
        _write_varint(out, nq)
        _write_varint(out, nc)
        _write_varint(out, len(cols))
        out += body


def _stream_header(compress: bool) -> bytearray:
    # the fixed octets; the circuit count varint follows them
    return bytearray((*MAGIC, VERSION, FLAG_COMPRESSED if compress else 0, 0, 0))


def encode(circuits, *, compress: bool = False) -> bytes:
    """Encode a circuit or a sequence of circuits into one stream."""
    if isinstance(circuits, Circuit):
        circuits = [circuits]
    enc = StreamEncoder(compress=compress)
    for c in circuits:
        enc.add(c)
    return enc.finish()


# -- decoding: careful per-record path ----------------------------------------

def _careful_records(data, o: int, end: int, m: int, nq: int, nc: int,
                     compress: bool, shared: dict) -> tuple[_Columns, int]:
    """Parse ``m`` records one by one; raises at the first fault in byte order."""
    step = _LAYOUTS[0].step
    code: list = []
    a: list = []
    b: list = []
    params: list = []
    extra: list = []

    def read_index(limit: int, what: str) -> int:
        nonlocal o
        field = o
        if compress:
            v, o = _read_varint(data, o, end)
        else:
            if o + 4 > end:
                raise Truncated(f"{what} runs past end of data", field)
            v = _UNPACK_U32(data, field)[0]
            o += 4
        if v >= limit:
            raise BadOperand(f"{what} {v} out of range for {limit}", field)
        return v

    for _ in range(m):
        if o >= end:
            raise Truncated("record runs past end of data", o)
        op = data[o]
        if step[op] == 0 and op != _BARRIER:
            raise UnknownOpcode(f"unknown opcode 0x{op:02X}", o)
        o += 1
        cls = op >> 5
        if cls == 5:
            cnt_off = o
            cnt, o = _read_varint(data, o, end)
            if cnt < 1:
                raise BadOperand("barrier needs at least one qubit", cnt_off)
            qs = [read_index(nq, "qubit index") for _ in range(cnt)]
            if len(set(qs)) != cnt:
                raise BadOperand("barrier qubits must be distinct", cnt_off)
            q0, q1 = cnt, -1
            extra += qs
        else:
            q0 = read_index(nq, "qubit index")
            q1 = -1
        if cls == 1 or cls == 2:
            width = 8 if cls == 1 else 24
            if o + width > end:
                raise Truncated("angle runs past end of data", o)
            vals = _UNPACK_D(data, o) if cls == 1 else _UNPACK_3D(data, o)
            for k, v in enumerate(vals):
                if not math.isfinite(v):
                    raise BadOperand("angle is not finite", o + 8 * k)
            params += vals
            o += width
        elif cls == 3:
            field = o
            q1 = read_index(nq, "qubit index")
            if q1 == q0:
                raise BadOperand("two-qubit gate operands must be distinct", field)
        elif cls == 4:
            q1 = read_index(nc, "cbit index")
        code.append(op)
        a.append(q0)
        b.append(q1)
    return _Columns.from_lists(code, a, b, params, extra, shared), o


# -- decoding: fast columnar path ---------------------------------------------

def _walk_offsets(data, o: int, end: int, m: int, step_lut, offs: list) -> int | None:
    """Append ``m`` record offsets to ``offs`` assuming fixed-size records and
    return where the records end; None means fall back."""
    ap = offs.append
    try:
        for _ in range(m):
            step = step_lut[data[o]]
            if step == 0:
                return None
            ap(o)
            o += step
    except IndexError:
        return None
    if o > end:
        return None
    return o


def _gather(arr, offs_list, blocks, layout: _Layout,
            shared: dict) -> list[_Columns] | None:
    """Columns of each circuit's fixed-shape records, gathered in one pass.

    ``offs_list`` starts with where every record of the batch starts,
    circuit after circuit; entries past the batch's records are not read.
    ``blocks`` holds one ``(records, nq, nc)`` per circuit, against whose
    register widths each of its rows is checked.  Each circuit's columns are
    slices of the batch arrays.  None if a record would reach outside
    ``arr``, the shape does not hold (a barrier, an unknown opcode, a
    multi-byte varint) or any operand is bad anywhere in the batch; the
    caller then decodes the circuits one by one.
    """
    counts = [n for n, _, _ in blocks]
    m = sum(counts)
    offs = np.fromiter(offs_list, dtype=np.int64, count=m)
    # offsets ascend, so the first and last bound them all; a stale
    # negative offset would read from the end of the buffer
    if m and (offs[0] < 0 or offs[-1] >= len(arr)):
        return None
    code = arr[offs]
    # every record must be of a fixed shape (the gather has no barrier
    # shape, and a barrier row whose count fits nq would pass every check
    # below) and end inside the buffer: a stale offset inside it may land
    # on any byte
    step = layout.steps[code]
    if (step == 0).any() or (offs + step > len(arr)).any():
        return None
    cls = code >> 5
    w = layout.width
    field = 1 + np.arange(w)
    a = arr[offs[:, None] + field].view(layout.itype).ravel().astype(np.int64)
    two = cls >= 3
    b = np.full(m, -1, dtype=np.int64)
    b[two] = arr[offs[two][:, None] + w + field].view(layout.itype).ravel()
    params = arr[_angle_bytes(offs + 1 + w, cls)].view("<f8")
    qlim = np.repeat([min(nq, layout.limit) for _, nq, _ in blocks], counts)
    clim = np.repeat([min(nc, layout.limit) for _, _, nc in blocks], counts)
    q2 = cls == 3
    # b is -1 below class 3, so every row passes its b check there.  The
    # index limit (128 when compressed) is what rejects a multi-byte or
    # padded varint: its first byte carries the continuation bit
    if ((a >= qlim).any() or (b >= np.where(cls == 4, clim, qlim)).any()
            or (b[q2] == a[q2]).any() or not np.isfinite(params).all()):
        return None
    extra = np.empty(0, dtype=np.int64)
    rows = np.cumsum([0] + counts)
    angles = np.concatenate(([0], np.cumsum(_ANGLE_BYTES_BY_CLASS[cls] >> 3)))
    r, p = rows.tolist(), angles[rows].tolist()
    return [_Columns(code[r[k]:r[k + 1]], a[r[k]:r[k + 1]], b[r[k]:r[k + 1]],
                     params[p[k]:p[k + 1]], extra, shared)
            for k in range(len(blocks))]


def _decode_circuit(data, arr, o: int, end: int, compress: bool,
                    shared: dict) -> tuple[Circuit, int]:
    """Decode the circuit at ``o``, whose bytes end by ``end``; returns it
    and where it ends.

    The walk: record offsets are found assuming the fixed shape, then
    gathered, which checks the assumption.  If that fails, the careful path
    reports the first fault in byte order.  ``shared`` is the reader's table
    of parameter-free instructions, which every circuit it decodes fills
    and reads when its body is materialized.
    """
    layout = _LAYOUTS[compress]
    nq, o = _read_varint(data, o, end)
    nc, o = _read_varint(data, o, end)
    m, records = _read_varint(data, o, end)
    offs: list = []
    at = _walk_offsets(data, records, end, m, layout.step, offs)
    if at is not None:
        cols = _gather(arr, offs, [(m, nq, nc)], layout, shared)
        if cols is not None:
            return Circuit._from_columns(nq, nc, cols[0]), at
    cols, at = _careful_records(data, records, end, m, nq, nc, compress, shared)
    return Circuit._from_columns(nq, nc, cols), at


def _decode_batch(data, arr, stops, offs, blocks, compress: bool,
                  shared: dict) -> list[Circuit]:
    """Decode the circuits that ``data`` starts with, the k-th ending at
    ``stops[k]``.

    ``offs`` starts with the exact offset of every record of the batch, as
    the stream decoder's scan records them, and ``blocks`` holds one
    ``(records, nq, nc)`` per circuit; one gather serves them all.  The
    offsets must be exact: a fixed-shape walk across circuits could fall
    short at a multi-byte index and read the next header inside a record.
    If the gather fails, the circuits are decoded again one by one by
    :func:`_decode_circuit`, so the first fault in byte order is reported.
    """
    cols = _gather(arr, offs, blocks, _LAYOUTS[compress], shared)
    if cols is not None:
        return [Circuit._from_columns(nq, nc, c)
                for (_, nq, nc), c in zip(blocks, cols)]
    out = []
    o = 0
    for stop in stops:
        c, o = _decode_circuit(data, arr, o, stop, compress, shared)
        out.append(c)
    return out


def _parse_stream_header(data, end: int) -> tuple[bool, int, int]:
    """Returns (compressed, circuit_count, offset after header)."""
    if end < 4:
        # a strict prefix of the magic may just be an incomplete stream
        if bytes(data[:end]) == MAGIC[:end]:
            raise Truncated("stream header is incomplete", end)
        raise BadMagic("stream does not start with OBIS magic", 0)
    if bytes(data[:4]) != MAGIC:
        raise BadMagic("stream does not start with OBIS magic", 0)
    if end < _HEADER_LEN:
        raise Truncated("stream header is incomplete", end)
    if data[4] != VERSION:
        raise UnsupportedVersion(f"unsupported version {data[4]}", 4)
    flags = data[5]
    if flags & ~FLAG_COMPRESSED:
        raise ReservedBits(f"reserved flag bits set: 0x{flags:02X}", 5)
    if data[6] or data[7]:
        raise ReservedBits("reserved octets must be zero", 6 if data[6] else 7)
    count, o = _read_varint(data, _HEADER_LEN, end)
    return bool(flags & FLAG_COMPRESSED), count, o


def decode(data) -> list[Circuit]:
    """Decode a stream into its circuits."""
    if not isinstance(data, bytes):
        data = bytes(data)
    end = len(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    compress, count, o = _parse_stream_header(data, end)
    shared: dict = {}
    out = []
    for _ in range(count):
        c, o = _decode_circuit(data, arr, o, end, compress, shared)
        out.append(c)
    if o != end:
        # no byte count: StreamDecoder raises on the first trailing byte it
        # sees, before the rest has arrived, and must say the same
        raise TrailingBytes("trailing bytes after last circuit", o)
    return out


# -- streaming ----------------------------------------------------------------

class StreamEncoder:
    """Incremental encoder.

    Each :meth:`add` flattens and checks its circuit at once, so it raises
    any :class:`BisEncodeError` the circuit causes, and keeps a snapshot of
    it: changing the circuit afterwards does not change the stream.  The
    snapshots are encoded in groups, one vectorized pass each; a group
    closes once its circuits hold 4,096 rows.

    Without a sink, :meth:`finish` returns a stream byte-identical to
    ``encode(circuits)``.  With a seekable binary ``sink``, the stream header
    is written at once and each group is written through when it closes, so
    the last circuits added reach the sink only at :meth:`finish`.  The
    circuit count -- unknown until the end -- is reserved as a 5-octet
    padded varint and patched by :meth:`finish`.
    """

    def __init__(self, *, compress: bool = False, sink=None):
        self.compress = compress
        self._sink = sink
        self._count = 0
        self._finished = False
        self._out = bytearray()  # encoded circuits not yet written to the sink
        self._group: list = []  # snapshots not yet encoded
        self._rows = 0  # their rows
        if sink is not None:
            head = _stream_header(compress)
            self._count_pos = sink.tell() + len(head)
            _write_varint_padded5(head, 0)
            sink.write(bytes(head))

    @property
    def circuit_count(self) -> int:
        return self._count

    def add(self, circuit: Circuit) -> None:
        if self._finished:
            raise BisEncodeError("stream already finished")
        snap = _snapshot(circuit)
        self._group.append(snap)
        self._rows += len(snap[2])
        self._count += 1
        if self._rows >= _GROUP_ROWS:
            self._close_group()

    def _close_group(self) -> None:
        if not self._group:
            return
        _encode_group(self._out, self._group, self.compress)
        self._group = []
        self._rows = 0
        if self._sink is not None:
            self._sink.write(self._out)
            self._out = bytearray()

    def finish(self) -> bytes | None:
        if self._finished:
            raise BisEncodeError("stream already finished")
        self._finished = True
        if self._count > _U32_MAX:
            raise BisEncodeError("circuit count exceeds 32 bits")
        self._close_group()
        if self._sink is None:
            out = _stream_header(self.compress)
            _write_varint(out, self._count)
            return b"".join((out, self._out))
        end_pos = self._sink.tell()
        self._sink.seek(self._count_pos)
        patch = bytearray()
        _write_varint_padded5(patch, self._count)
        self._sink.write(bytes(patch))
        self._sink.seek(end_pos)
        return None


def _shifted(err: BisDecodeError, base: int) -> BisDecodeError:
    """``err`` with its buffer offset moved ``base`` bytes into the stream."""
    return type(err)(err.message, err.offset + base)


class StreamDecoder:
    """Incremental decoder: feed chunks, collect circuits as they complete.

    ``feed`` buffers input and returns every circuit completed so far;
    ``finish`` raises if the stream stopped mid-way (:class:`Truncated`, or
    an earlier fault in the unfinished circuit).  The first byte after the
    declared circuit count raises :class:`TrailingBytes` from ``feed``.

    A length-only scan finds where each pending circuit ends, and records
    where each of its records starts as it goes.  All circuits a feed
    completes are then gathered at those offsets in one pass by the same
    gatherer as :func:`decode`; if any of them is bad or holds a barrier,
    they are decoded one by one as :func:`decode` would, so every error
    matches :func:`decode`'s class and absolute offset.  Operand errors
    therefore surface when their circuit is complete, or at :meth:`finish`.
    Parameter-free instructions are shared across every circuit this
    decoder returns.
    """

    def __init__(self):
        self._buf = bytearray()  # from the pending circuit (or stream header) on
        self._consumed = 0  # absolute offset of _buf[0] in the stream
        self._compress: bool | None = None  # None until the header is in
        self._remaining = 0  # circuits not yet decoded
        self._shared: dict = {}  # parameter-free instructions of every circuit
        # scan cursor in _buf; records left to size in the pending circuit
        # (-1 before its header); index varints, then raw bytes, left in the
        # current record
        self._pos = 0
        self._left = -1
        self._varints = 0
        self._skip = 0
        # (records, nq, nc) of the pending circuit; where in _buf each record
        # of the circuits not yet gathered starts, circuit after circuit
        self._head = (0, 0, 0)
        self._offs: list[int] = []

    def _drop(self, n: int) -> None:
        del self._buf[:n]
        self._consumed += n
        self._pos -= n
        # the pending circuit's record offsets move with the buffer
        if self._offs:
            self._offs = [x - n for x in self._offs]

    def _scan(self) -> bool:
        """Size the pending circuit from the cursor on; True once it is complete.

        Reads only opcodes, barrier counts and varint continuation bits, and
        appends each record's start to ``_offs``.  The cursor stops after the
        last whole field, so a circuit split across feeds is scanned once.
        """
        buf = self._buf
        end = len(buf)
        compress = self._compress
        layout = _LAYOUTS[compress]
        step, span, varint_lut = layout.step, layout.span, layout.varints
        offs = self._offs
        ap = offs.append
        o, left, varints, skip = self._pos, self._left, self._varints, self._skip
        try:
            if left < 0:  # circuit header: num_qubits, num_cbits, record count
                nq, h = _read_varint(buf, o, end)
                nc, h = _read_varint(buf, h, end)
                left, o = _read_varint(buf, h, end)
                self._head = (left, nq, nc)
            while True:
                while varints:
                    _, o = _read_varint(buf, o, end)
                    varints -= 1
                if skip:
                    if o + skip > end:
                        skip -= end - o
                        o = end
                        return False
                    o += skip
                    skip = 0
                # the tight loop: fixed-size records that lie wholly in the
                # buffer (a barrier's or unknown opcode's span never does)
                # and, compressed, have one-byte indices: no continuation bit
                # at o+1 .. o+k.  Such a record's size is its step
                sized = len(offs)
                try:
                    if compress:
                        for _ in range(left):
                            op = buf[o]
                            n = span[op]
                            if (o + n > end
                                    or (buf[o + 1] | buf[o + varint_lut[op]]) & 0x80):
                                break
                            ap(o)
                            o += n
                    else:
                        for _ in range(left):
                            n = span[buf[o]]
                            if o + n > end:
                                break
                            ap(o)
                            o += n
                except IndexError:  # o reached the end of the buffer
                    pass
                left -= len(offs) - sized
                if not left:
                    return True
                if o >= end:
                    return False
                # any other record: the exact per-field path.  A record's
                # start is committed once its opcode (and a barrier's count)
                # is consumed, never before: a feed that stops inside the
                # count re-reads the record, which must not add it twice
                op = buf[o]
                n = step[op]
                if n:
                    ap(o)
                    varints = varint_lut[op]
                    skip = n - 1 - varints
                    o += 1
                elif op == _BARRIER:
                    cnt, after = _read_varint(buf, o + 1, end)
                    ap(o)
                    o = after
                    if compress:
                        varints = cnt
                    else:
                        skip = 4 * cnt
                else:
                    raise UnknownOpcode(f"unknown opcode 0x{op:02X}", o)
                left -= 1
        except Truncated:
            return False
        finally:
            self._pos, self._left, self._varints, self._skip = o, left, varints, skip

    def feed(self, data) -> list[Circuit]:
        self._buf += data
        if self._compress is None:
            try:
                self._compress, self._remaining, self._pos = \
                    _parse_stream_header(self._buf, len(self._buf))
            except Truncated:
                return []
            self._drop(self._pos)
        ends: list[int] = []
        blocks: list[tuple[int, int, int]] = []
        fault = None
        try:
            while len(ends) < self._remaining and self._scan():
                ends.append(self._pos)
                blocks.append(self._head)
                self._left = -1
        except BisDecodeError as e:
            fault = e
        out: list[Circuit] = []
        if ends or fault is not None:
            chunk = bytes(self._buf)
            arr = np.frombuffer(chunk, dtype=np.uint8)
            o = ends[-1] if ends else 0
            try:
                if ends:
                    out = _decode_batch(chunk, arr, ends, self._offs, blocks,
                                        self._compress, self._shared)
                if fault is not None:
                    # reports an earlier bad operand, else the scan's fault
                    _decode_circuit(chunk, arr, o, len(chunk), self._compress,
                                    self._shared)
                    raise fault
            except BisDecodeError as e:
                raise _shifted(e, self._consumed) from None
            self._remaining -= len(ends)
            # free the gathered circuits' offsets; the pending one's remain
            del self._offs[:sum(m for m, _, _ in blocks)]
            self._drop(o)
        if not self._remaining and self._buf:
            raise TrailingBytes("trailing bytes after last circuit",
                                self._consumed)
        return out

    def finish(self) -> None:
        if self._compress is not None and not self._remaining:
            if self._buf:
                raise TrailingBytes("trailing bytes after last circuit",
                                    self._consumed)
            return
        # the stream stopped mid-way: read the tail as decode would
        tail = bytes(self._buf)
        try:
            if self._compress is None:
                _parse_stream_header(tail, len(tail))
            else:
                _decode_circuit(tail, np.frombuffer(tail, dtype=np.uint8), 0,
                                len(tail), self._compress, self._shared)
        except BisDecodeError as e:
            raise _shifted(e, self._consumed) from None
        raise Truncated("stream ended before the declared circuits",
                        self._consumed + len(tail))
