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
pass, each such field sized by its varint's octets.

The gather takes where each record starts and reads the fixed shape at
fixed places.  Barriers, compressed indices >= 128 and padded varints
take its sized branch, which reads each field where the one before ends:
barrier counts and index pools by cumulative sums, varints by vectorized
masks.  Every operand is checked, each row against its own circuit's
register widths, and the masks and field offsets of these checks locate
the first fault in byte order: every malformed input raises a
:class:`BisDecodeError` subclass carrying that fault's byte ``offset``.
:class:`StreamDecoder`'s scan sizes every record exactly and records the
offsets as it goes, so one gather serves every circuit a feed completes.
:func:`decode` walks one circuit at a time by the fixed shape; from the
first circuit that the walk cannot size (a barrier, a multi-octet index
or a structural fault), the rest of the stream takes the stream decoder's
path.  So both readers raise the
same error at the same offset for every input.  The stream decoder
reports a circuit's operand errors once that circuit is complete, or at
:meth:`StreamDecoder.finish`, rather than when the bad record arrives.

Each reader owns one table of parameter-free instructions (1Q, 2Q,
MEASURE): one per :func:`decode` call, one per :class:`StreamDecoder` for
its lifetime.  Equal such rows in any of the circuits it returns are the
same immutable :class:`~quantir.circuit.Instruction` once their bodies are
materialized; separate reads share none.
"""
from __future__ import annotations

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

    compressed: bool    # index fields are varints
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
    return _Layout(compress, itype, width, limit, lens, step, np.array(step),
                   span, varints)


# indexed by the compressed flag; a compressed index below 128 is one octet
_LAYOUTS = (_layout("<u4", 1 << 32, False), _layout("u1", 128, True))


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


# -- decoding -----------------------------------------------------------------

def _walk_offsets(data, o: int, end: int, m: int, step_lut, offs: list) -> int:
    """Append the offsets of up to ``m`` records from ``o``, each sized by
    its fixed shape, and return where the last one appended ends, which may
    be past ``end``.

    Stops before a barrier or an unknown opcode.  Compressed, the shape
    takes each index as one octet, so the offsets after a multi-octet
    index are wrong.
    """
    ap = offs.append
    try:
        for _ in range(m):
            step = step_lut[data[o]]
            if step == 0:
                break
            ap(o)
            o += step
    except IndexError:  # o reached the end of data
        pass
    return o


def _size_records(buf, o: int, end: int, left: int, varints: int, skip: int,
                  layout: _Layout, offs: list) -> tuple[int, int, int, int]:
    """Size up to ``left`` records of ``buf`` from ``o``, append where each
    starts to ``offs``, and return ``(o, left, varints, skip)`` where sizing
    stopped: after the last whole field before ``end``, or with all three
    counts 0.  ``varints`` and ``skip`` are what is left of the record being
    sized: its index varints, then its raw bytes.  Reads only opcodes,
    barrier counts and continuation bits; raises :class:`UnknownOpcode`
    and :class:`VarintTooLong`.
    """
    step, span, varint_lut = layout.step, layout.span, layout.varints
    ap = offs.append
    try:
        while True:
            while varints:
                _, o = _read_varint(buf, o, end)
                varints -= 1
            if skip:
                if o + skip > end:
                    return end, left, varints, skip - (end - o)
                o += skip
                skip = 0
            # the tight loop: fixed-size records that lie wholly before end
            # (a barrier's or unknown opcode's span never does) and,
            # compressed, have one-byte indices: no continuation bit at
            # o+1 .. o+k.  Such a record's size is its step
            sized = len(offs)
            try:
                if layout.compressed:
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
            if not left or o >= end:
                return o, left, varints, skip
            # any other record, field by field.  Its start is appended once
            # its opcode (and a barrier's count) is read, never before:
            # sizing that stops inside the count reads the record again
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
                if layout.compressed:
                    varints = cnt
                else:
                    skip = 4 * cnt
            else:
                raise UnknownOpcode(f"unknown opcode 0x{op:02X}", o)
            left -= 1
    except Truncated:  # the bytes end inside a varint
        return o, left, varints, skip


_K5 = np.arange(5)
_POW128, _POW256 = 128 ** _K5, 256 ** _K5[:4]  # octet weights of a varint, a u32


def _read_fields(arr, at, var):
    """Value, octets and fault of the field at each of ``at``: a varint
    where ``var``, else a u32.  A field is at fault if it runs past the end
    of ``arr``, or is a varint too long or too large; a varint with no last
    octet in reach is taken as 6 octets, longer than any."""
    pos = at[:, None] + _K5
    missing = pos >= len(arr)
    octet = arr[np.minimum(pos, len(arr) - 1, out=pos)]
    octet[missing] = 0x80
    more = octet > 0x7F
    last = more.argmin(axis=1)  # where a varint ends: its first octet below 0x80
    varint = ((octet & 0x7F) * (_K5 <= last[:, None])) @ _POW128
    ended = ~more.all(axis=1)
    return (np.where(var, varint, octet[:, :4] @ _POW256),
            np.where(var, np.where(ended, last + 1, 6), 4),
            np.where(var, ~ended | (varint > _U32_MAX), missing[:, 3]))


def _gather(arr, offs_list, blocks, layout: _Layout, shared: dict,
            stop: BisDecodeError | None = None) -> list[_Columns] | None:
    """Columns of each circuit's records, gathered in one pass; raises the
    first fault in byte order.

    ``offs_list`` starts with where every record of the batch starts,
    circuit after circuit; entries past the batch's records are not read.
    ``blocks`` holds one ``(records, nq, nc)`` per circuit, against whose
    register widths its rows are checked; its columns are slices of the
    batch's.  ``stop`` is the fault at which sizing stopped short of the
    batch's records, if it did: the last row may then be cut short by the
    end of ``arr``.  Every offset names an opcode inside ``arr``, and
    without ``stop`` every record ends inside it, as both record walkers
    leave them.  None only when a walk by the fixed shape took the offsets
    and a multi-octet index made them wrong.
    """
    counts = [n for n, _, _ in blocks]
    m = sum(counts)
    end = len(arr)
    offs = np.fromiter(offs_list, dtype=np.int64, count=m)
    code = arr[offs]
    cls = code >> 5
    rows = np.array([0] + counts).cumsum()
    step = layout.steps[code]
    w = layout.width
    # the fixed-shape branch: every record of a fixed shape, inside arr
    fixed = not ((step == 0).any() or (offs + step > end).any())
    if fixed:
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
        # index limit (128 when compressed) catches a multi-octet or padded
        # varint: its first octet carries the continuation bit
        if not ((a >= qlim).any() or (b >= np.where(cls == 4, clim, qlim)).any()
                or (b[q2] == a[q2]).any() or not np.isfinite(params).all()):
            if stop is not None:
                raise stop
            return _split(rows, code, a, b, params, a[:0], [0] * len(rows), shared)
        if layout.compressed and max(a.max(), b.max()) > 0x7F:
            # a multi-octet index: if its record ends where the fixed shape
            # does, a walk by that shape took these offsets, and got the
            # ones after it wrong
            i = ((a > 0x7F) | (b > 0x7F)).argmax()
            if stop is None and offs[i] + step[i] == (offs[i + 1] if i + 1 < m
                                                      else end):
                return None
            fixed = False
    # the sized branch, which also locates faults.  A record's fields follow
    # its opcode back to back: an index or a barrier's count (a varint in
    # both modes), then a second index, or as many of a barrier's indices
    # as could start before end, and one more.  While the fixed shape
    # holds, they are where it puts them
    bar = code == _BARRIER
    head = offs + 1
    size = np.full(m, w)
    two = (cls == 3) | (cls == 4)
    n = 1 + two
    if bar.any():
        cnt, size[bar], bad = _read_fields(arr, head[bar], True)
        n[bar] += np.where(bad, 0, np.minimum(
            cnt, np.maximum(end - head[bar] - size[bar] + 1, 0)))
    first = n.cumsum() - n
    row = np.arange(m).repeat(n)
    k = np.arange(len(row)) - first[row]
    at = head[row] + np.where(k > 0, size[row] + 4 * (k - 1), 0)
    count = (k == 0) & bar[row]
    var = layout.compressed | count
    ang = _ANGLE_BYTES_BY_CLASS[cls]
    if fixed:
        v, bad = np.where(k > 0, b[row], a[row]), k < 0
        stops = offs + step
    else:
        if layout.compressed:  # each starts past the octet that ends the one before
            term = np.concatenate(((arr < 0x80).nonzero()[0], [end - 1]))
            j = np.minimum(term.searchsorted(head)[row] + k - 1, len(term) - 1)
            at = np.where(k > 0, term[j] + 1, at)
        v, size, bad = _read_fields(arr, at, var)
        stops = (at + size)[first + n - 1] + ang
    cbit = (k == 1) & (cls[row] == 4)
    lim = np.array(blocks)[:, 1:].repeat(counts, axis=0)[row, cbit * 1]
    apos = _angle_bytes(stops - ang, cls)
    params = arr[np.minimum(apos, end - 1)].view("<f8")
    apos = apos[::8]
    pool = (k > 0) & bar[row]
    dup = np.zeros(m, dtype=bool)
    if pool.any():  # a barrier's indices side by side in (record, value) order
        order = np.lexsort((v[pool], row[pool]))
        pr, pv = row[pool][order], v[pool][order]
        dup[pr[1:][(pr[1:] == pr[:-1]) & (pv[1:] == pv[:-1])]] = True
    # the first fault in byte order: each key is four times the offset
    # where the fault is found, so a barrier's indices are checked to be
    # distinct after the last is read, and an angle block cut short counts
    # before its first value.  A field's own checks come in the order
    # below: its octets, then its value
    out = np.where(count, v == 0, v >= lim)
    twin = (k == 1) & (cls[row] == 3) & (v == v[first[row]])
    cut = (ang > 0) & (stops > end)
    never = 1 << 62
    key = np.concatenate((
        np.where(bad | out | twin, 4 * at, never),
        np.where(cut, 4 * (stops - ang), np.where(dup, 4 * stops - 1, never)),
        np.where(np.isfinite(params), never, 4 * apos + 1), [never]))
    i = int(key.argmin())
    if key[i] < never:
        r, f = i - len(v), min(i, len(v) - 1)
        o, what = int(at[f]), "cbit index" if cbit[f] else "qubit index"
        if r >= m:
            raise BadOperand("angle is not finite", int(apos[r - m]))
        if r >= 0:
            if cut[r]:
                raise Truncated("angle runs past end of data", int(stops[r] - ang[r]))
            raise BadOperand("barrier qubits must be distinct", int(head[r]))
        if bad[f] and var[f]:
            _read_varint(memoryview(arr), o, end)  # raises its fault
        if bad[f]:
            raise Truncated(f"{what} runs past end of data", o)
        if count[f]:
            raise BadOperand("barrier needs at least one qubit", o)
        if out[f]:
            raise BadOperand(f"{what} {v[f]} out of range for {lim[f]}", o)
        raise BadOperand("two-qubit gate operands must be distinct", o)
    if stop is not None:
        raise stop
    b = np.full(m, -1, dtype=np.int64)
    b[two] = v[first[two] + 1]
    pools = np.concatenate(([0], np.where(bar, n - 1, 0).cumsum()))[rows].tolist()
    return _split(rows, code, v[first], b, params, v[pool], pools, shared)


def _split(rows, code, a, b, params, extra, pools, shared) -> list[_Columns]:
    """Each circuit's columns, as slices of the batch's: ``rows`` and
    ``pools`` hold where each circuit's rows and barrier indices start."""
    p = np.concatenate(([0], np.cumsum(_ANGLE_BYTES_BY_CLASS[code >> 5] >> 3)))
    p, r = p[rows].tolist(), rows.tolist()
    return [_Columns(code[r[k]:r[k + 1]], a[r[k]:r[k + 1]], b[r[k]:r[k + 1]],
                     params[p[k]:p[k + 1]], extra[pools[k]:pools[k + 1]], shared)
            for k in range(len(r) - 1)]


def _decode_circuit(data, arr, o: int, end: int, compress: bool,
                    shared: dict) -> tuple[Circuit | None, int]:
    """Decode the circuit at ``o``, whose bytes end by ``end``, if a walk by
    the fixed shape sizes all its records; returns it, else None, and where
    it ends.  ``shared`` is the reader's table of parameter-free
    instructions, which every circuit it decodes fills and reads when its
    body is materialized.
    """
    layout = _LAYOUTS[compress]
    nq, o = _read_varint(data, o, end)
    nc, o = _read_varint(data, o, end)
    m, o = _read_varint(data, o, end)
    offs: list = []
    at = _walk_offsets(data, o, end, m, layout.step, offs)
    cols = len(offs) == m and at <= end and _gather(arr[:at], offs, [(m, nq, nc)],
                                                    layout, shared)
    return Circuit._from_columns(nq, nc, cols[0]) if cols else None, at


def _decode_batch(arr, offs, blocks, compress: bool,
                  shared: dict) -> list[Circuit]:
    """Decode the circuits that ``arr`` starts with.

    ``offs`` starts with the exact offset of every record of the batch, as
    the stream decoder's scan records them, and ``blocks`` holds one
    ``(records, nq, nc)`` per circuit; one gather serves them all.
    """
    cols = _gather(arr, offs, blocks, _LAYOUTS[compress], shared)
    return [Circuit._from_columns(nq, nc, c)
            for (_, nq, nc), c in zip(blocks, cols)]


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


# bytes that decode feeds the stream decoder at a time
_FEED = 1 << 16


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
        c, at = _decode_circuit(data, arr, o, end, compress, shared)
        if c is None:
            # off the fixed shape, or at fault: the rest takes the stream
            # decoder's path, which sizes every record exactly.  Fed in
            # parts, it gathers a few circuits at a time
            dec = StreamDecoder._resume(compress, count - len(out), o, shared)
            view = memoryview(data)
            for part in range(o, end, _FEED):
                out += dec.feed(view[part:part + _FEED])
            dec.finish()
            return out
        out.append(c)
        o = at
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
    gatherer as :func:`decode`, barriers and multi-octet varints included,
    so every error matches :func:`decode`'s class and absolute offset.
    Operand errors therefore surface when their circuit is complete, or at
    :meth:`finish`.  Parameter-free instructions are shared across every
    circuit this decoder returns.
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

    @classmethod
    def _resume(cls, compress: bool, remaining: int, consumed: int,
                shared: dict) -> "StreamDecoder":
        """A decoder of the ``remaining`` circuits of a stream whose first
        ``consumed`` bytes were read, filling ``shared``."""
        dec = cls()
        dec._compress, dec._remaining, dec._consumed = compress, remaining, consumed
        dec._shared = shared
        return dec

    def _drop(self, n: int) -> None:
        del self._buf[:n]
        self._consumed += n
        self._pos -= n
        # the pending circuit's record offsets move with the buffer
        if self._offs:
            self._offs = [x - n for x in self._offs]

    def _scan(self) -> bool:
        """Size the pending circuit from the cursor on; True once it is complete.

        The cursor stops after the last whole field, so a circuit split
        across feeds is scanned once.
        """
        buf = self._buf
        o = self._pos
        if self._left < 0:  # circuit header: num_qubits, num_cbits, record count
            try:
                nq, o = _read_varint(buf, o, len(buf))
                nc, o = _read_varint(buf, o, len(buf))
                left, o = _read_varint(buf, o, len(buf))
            except Truncated:
                return False
            self._head = (left, nq, nc)
            self._pos, self._left = o, left
        self._pos, self._left, self._varints, self._skip = _size_records(
            buf, o, len(buf), self._left, self._varints, self._skip,
            _LAYOUTS[self._compress], self._offs)
        return not (self._left or self._varints or self._skip)

    def _fail(self, arr, offs: list, stop: BisDecodeError) -> None:
        """Raise the pending circuit's first fault up to ``stop``, where
        sizing it stopped; ``offs`` are its records' starts in ``arr``."""
        _, nq, nc = self._head
        _gather(arr, offs, [(len(offs), nq, nc)], _LAYOUTS[self._compress],
                self._shared, stop)
        raise stop

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
            arr = np.frombuffer(bytes(self._buf), dtype=np.uint8)
            o = ends[-1] if ends else 0
            try:
                if ends:
                    out = _decode_batch(arr, self._offs, blocks,
                                        self._compress, self._shared)
                if fault is not None:  # an earlier fault, else the scan's
                    self._fail(arr, self._offs[sum(m for m, _, _ in blocks):],
                               fault)
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
        # the stream stopped mid-way: the pending circuit's first fault
        tail = bytes(self._buf)
        try:
            if self._compress is None:
                _parse_stream_header(tail, len(tail))
            o = self._pos
            if self._left < 0:  # inside the circuit header
                for _ in range(3):
                    _, o = _read_varint(tail, o, len(tail))
            offs = list(self._offs)
            if o < len(tail) and not self._varints + self._skip:
                offs.append(o)  # a barrier, inside its count
            # always raises: the first fault, else the truncation at o
            self._fail(np.frombuffer(tail, dtype=np.uint8), offs,
                       Truncated("record runs past end of data", o))
        except BisDecodeError as e:
            raise _shifted(e, self._consumed) from None
