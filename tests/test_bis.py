import io
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantir import bis
from quantir.bis import (
    BadMagic, BadOperand, BisDecodeError, BisEncodeError, ReservedBits,
    StreamDecoder, StreamEncoder, TrailingBytes, Truncated, UnknownOpcode,
    UnsupportedVersion, VarintTooLong, decode, encode,
)
from quantir.circuit import Circuit, Instruction, _Columns, flatten
from quantir.gates import GateKind, KIND_BY_OPCODE

from conftest import circuits, ghz

GOLDEN_H = bytes.fromhex("4f42495301000000" "01" "010001" "0100000000")

GOLDEN_WIDE = bytes.fromhex(
    "4F42495301010000" "01" "FFFFFFFF0F" "01" "04"
    "01" "808001"
    "60" "7F" "8001"
    "A0" "04" "7F" "8001" "80808001" "FEFFFFFF0F"
    "80" "8080808001" "00")


def rt(cs, compress=False):
    return decode(encode(cs, compress=compress))


class TestGolden:
    def test_single_h_uncompressed(self):
        c = Circuit(1, 0).h(0)
        assert encode([c]) == GOLDEN_H
        assert len(GOLDEN_H) == 17

    def test_single_h_decodes(self):
        (c,) = decode(GOLDEN_H)
        assert c.num_qubits == 1 and c.num_cbits == 0
        assert c.body == [Instruction(GateKind.H, (0,))]

    def test_single_h_compressed(self):
        c = Circuit(1, 0).h(0)
        data = encode([c], compress=True)
        assert data == bytes.fromhex("4f42495301010000" "01" "010001" "0100")
        assert decode(data)[0] == c

    def test_multi_octet_varints(self):
        c = (Circuit((1 << 32) - 1, 1).h(1 << 14).cnot(127, 128)
             .barrier(127, 128, 1 << 21, (1 << 32) - 2).measure(1 << 28, 0))
        data = encode([c], compress=True)
        assert data == GOLDEN_WIDE
        assert decode(data) == [c]
        # the fixture as docs/bis-format.md prints it
        doc = (Path(__file__).parents[1] / "docs" / "bis-format.md").read_text()
        assert data.hex().upper() in "".join(doc.split())

    def test_empty_stream(self):
        data = encode([])
        assert data == b"OBIS\x01\x00\x00\x00\x00"
        assert decode(data) == []

    def test_record_sizes(self):
        base = len(encode([Circuit(1, 0)]))
        for build, usize, csize in [
            (lambda c: c.h(0), 5, 2),
            (lambda c: c.rx(0, 1.0), 13, 10),
            (lambda c: c.u3(0, 1.0, 2.0, 3.0), 29, 26),
            (lambda c: c.cnot(0, 1), 9, 3),
            (lambda c: c.measure(0, 0), 9, 3),
        ]:
            c = Circuit(2, 1)
            build(c)
            hdr = len(encode([Circuit(2, 1)]))
            assert len(encode([c])) - hdr == usize
            assert len(encode([c], compress=True)) - hdr == csize


class TestRoundTrip:
    def test_multi_circuit(self):
        cs = [ghz(3), Circuit(2, 2).measure(0, 0).measure(1, 1), Circuit(1)]
        for compress in (False, True):
            got = rt(cs, compress)
            assert got == cs

    def test_barrier(self):
        c = Circuit(4).h(0).barrier(2, 0, 3).x(1)
        for compress in (False, True):
            assert rt([c], compress) == [c]

    def test_daggered_x1(self):
        c = Circuit(1).x1(0, dagger=True)
        got = rt([c])[0]
        assert got.body[0].dagger and got.body[0].kind is GateKind.X1

    def test_wide_indices_compressed(self):
        # forces multi-byte varints (and the gather's sized branch)
        c = Circuit(300)
        c.h(255).cnot(130, 299).rz(200, 0.25).barrier(128, 256)
        c.measure(299, 250)
        for compress in (False, True):
            assert rt([c], compress) == [c]

    def test_signed_zero_and_extremes(self):
        c = Circuit(1).rz(0, -0.0).rz(0, 5e-324).rz(0, 1.7976931348623157e308)
        for compress in (False, True):
            assert rt([c], compress) == [c]

    def test_encode_flattens(self):
        inner = Circuit(2).s(0).cnot(0, 1)
        outer = Circuit(2).sub(inner, dagger=True)
        assert rt([outer]) == [flatten(outer)]

    def test_encode_single_circuit_arg(self):
        assert decode(encode(ghz(2))) == [ghz(2)]

    @settings(max_examples=80, deadline=None)
    @given(circuits(measures=True), st.booleans())
    def test_random_roundtrip(self, c, compress):
        assert rt([c], compress) == [flatten(c)]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(circuits(max_len=8), max_size=4), st.booleans())
    def test_random_multi(self, cs, compress):
        assert rt(cs, compress) == [flatten(c) for c in cs]

    def test_determinism(self):
        c = ghz(4)
        assert encode([c], compress=True) == encode([c], compress=True)

    def test_padded_varint_accepted(self):
        # hand-build single-H with a padded circuit count
        data = bytearray(b"OBIS\x01\x00\x00\x00")
        data += b"\x81\x80\x80\x80\x00"  # 1, padded to 5 octets
        data += b"\x01\x00\x01" + b"\x01" + b"\x00\x00\x00\x00"
        (c,) = decode(bytes(data))
        assert c.body == [Instruction(GateKind.H, (0,))]


class TestDecodeErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagic) as e:
            decode(b"NOPE\x01\x00\x00\x00\x00")
        assert e.value.offset == 0
        with pytest.raises(BadMagic):
            decode(b"XY")

    def test_short_magic_prefix_is_truncated(self):
        with pytest.raises(Truncated):
            decode(b"OB")

    def test_bad_version(self):
        with pytest.raises(UnsupportedVersion) as e:
            decode(b"OBIS\x02\x00\x00\x00\x00")
        assert e.value.offset == 4

    def test_reserved_flag_bits(self):
        with pytest.raises(ReservedBits):
            decode(b"OBIS\x01\x02\x00\x00\x00")

    def test_reserved_octets(self):
        with pytest.raises(ReservedBits):
            decode(b"OBIS\x01\x00\x07\x00\x00")
        with pytest.raises(ReservedBits):
            decode(b"OBIS\x01\x00\x00\x07\x00")

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            decode(b"OBIS\x01\x00\x00")

    def test_truncated_missing_circuits(self):
        with pytest.raises(Truncated):
            decode(b"OBIS\x01\x00\x00\x00\x05")

    def test_truncated_mid_record(self):
        with pytest.raises(Truncated):
            decode(GOLDEN_H[:-2])

    def test_trailing_bytes(self):
        with pytest.raises(TrailingBytes) as e:
            decode(GOLDEN_H + b"\x00")
        assert e.value.offset == 17

    def test_unknown_opcode(self):
        bad = bytearray(GOLDEN_H)
        bad[12] = 0x1F
        with pytest.raises(UnknownOpcode) as e:
            decode(bytes(bad))
        assert e.value.offset == 12

    def test_qubit_out_of_range(self):
        bad = bytearray(GOLDEN_H)
        bad[13] = 9  # H q[9] in a 1-qubit circuit
        with pytest.raises(BadOperand) as e:
            decode(bytes(bad))
        assert e.value.offset == 13

    def test_cbit_out_of_range(self):
        c = Circuit(1, 0)
        data = bytearray(encode([c]))
        # rewrite header: 1 instruction, then a MEASURE q[0],c[0] with 0 cbits
        data[11] = 1
        data += bytes([0x80]) + b"\x00\x00\x00\x00" + b"\x00\x00\x00\x00"
        with pytest.raises(BadOperand):
            decode(bytes(data))

    def test_duplicate_2q_operands(self):
        c = Circuit(2).cnot(0, 1)
        data = bytearray(encode([c]))
        data[-4:] = b"\x00\x00\x00\x00"  # second operand = first
        with pytest.raises(BadOperand):
            decode(bytes(data))

    def test_nonfinite_angle(self):
        c = Circuit(1).rz(0, 1.0)
        data = bytearray(encode([c]))
        import struct
        data[-8:] = struct.pack("<d", math.inf)
        with pytest.raises(BadOperand):
            decode(bytes(data))
        data[-8:] = struct.pack("<d", math.nan)
        with pytest.raises(BadOperand):
            decode(bytes(data))

    def test_varint_too_long(self):
        data = b"OBIS\x01\x00\x00\x00" + b"\x80\x80\x80\x80\x80\x01"
        with pytest.raises(VarintTooLong) as e:
            decode(data)
        assert e.value.offset == 8

    def test_varint_value_overflow(self):
        data = b"OBIS\x01\x00\x00\x00" + b"\xff\xff\xff\xff\x7f"
        with pytest.raises(VarintTooLong):
            decode(data)

    def test_declared_count_capped(self):
        # huge instruction count with almost no data: immediate error
        data = b"OBIS\x01\x00\x00\x00\x01" + b"\x01\x00" + b"\xff\xff\xff\xff\x0f"
        with pytest.raises(Truncated):
            decode(data)

    def test_barrier_zero_count(self):
        data = (b"OBIS\x01\x00\x00\x00\x01" + b"\x02\x00\x01"
                + b"\xa0\x00" + b"\x00\x00\x00")
        with pytest.raises(BadOperand):
            decode(data)

    def test_barrier_duplicate_qubits(self):
        c = Circuit(2, 0)
        stream = bytearray(b"OBIS\x01\x01\x00\x00\x01")
        stream += b"\x02\x00\x01" + b"\xa0\x02\x01\x01"
        with pytest.raises(BadOperand):
            decode(bytes(stream))

    def test_first_fault_in_byte_order(self):
        c = Circuit(2, 1).measure(0, 0).h(1)
        data = bytearray(encode([c]))
        data[17] = 5  # cbit 5 of 1, in the first record
        data[22] = 9  # qubit 9 of 2, in the second
        with pytest.raises(BadOperand) as e:
            decode(bytes(data))
        assert e.value.offset == 17

    def test_errors_carry_offset(self):
        for data, kind in [
            (b"NOPE\x01\x00\x00\x00\x00", BadMagic),
            (b"OBIS\x09\x00\x00\x00\x00", UnsupportedVersion),
            (GOLDEN_H + b"!", TrailingBytes),
        ]:
            with pytest.raises(kind) as e:
                decode(data)
            assert isinstance(e.value.offset, int)
            assert "at byte" in str(e.value)


# a sink-mode stream header: the fixed octets, then a 5-octet padded count
_SINK_HEAD = len(encode([])) - 1 + 5


def _unpadded(data: bytes) -> bytes:
    """A sink-mode stream of fewer than 128 circuits with its count minimal."""
    head = len(encode([])) - 1
    return data[:head] + bytes([data[head] & 0x7F]) + data[_SINK_HEAD:]


class TestStreamEncoder:
    def test_owned_buffer_matches_batch(self):
        cs = [ghz(3), Circuit(2).rx(0, 0.5), Circuit(1)]
        for compress in (False, True):
            enc = StreamEncoder(compress=compress)
            for c in cs:
                enc.add(c)
            assert enc.finish() == encode(cs, compress=compress)

    def test_sink_mode_backpatches(self):
        cs = [ghz(2), Circuit(1).t(0)]
        sink = io.BytesIO()
        enc = StreamEncoder(sink=sink)
        for c in cs:
            enc.add(c)
        assert enc.finish() is None
        data = sink.getvalue()
        # longer than batch by the padded count, but decodes identically
        assert len(data) == len(encode(cs)) + 4
        assert decode(data) == cs

    def test_sink_mode_empty(self):
        sink = io.BytesIO()
        StreamEncoder(sink=sink).finish()
        assert decode(sink.getvalue()) == []

    def test_add_after_finish(self):
        enc = StreamEncoder()
        enc.finish()
        with pytest.raises(BisEncodeError):
            enc.add(Circuit(1))
        with pytest.raises(BisEncodeError):
            enc.finish()

    def test_count_property(self):
        enc = StreamEncoder()
        enc.add(Circuit(1))
        enc.add(Circuit(2))
        assert enc.circuit_count == 2

    @pytest.mark.parametrize("sink", [False, True])
    @pytest.mark.parametrize("compress", [False, True])
    def test_add_keeps_a_snapshot(self, compress, sink):
        cs = [ghz(3), Circuit(2).rx(0, 0.5), Circuit(2, 1).h(1).measure(1, 0)]
        want = encode(cs, compress=compress)
        out = io.BytesIO() if sink else None
        enc = StreamEncoder(compress=compress, sink=out)
        for c in cs:
            enc.add(c)
        if sink:
            assert out.tell() == _SINK_HEAD  # the group is still open
        cs[0].x(2)
        cs[1].num_qubits = 7
        cs[2].append(Instruction(GateKind.T, (0,)))
        got = enc.finish()
        if sink:
            assert got is None
            got = _unpadded(out.getvalue())
        assert got == want
        assert encode(cs, compress=compress) != want

    def test_a_full_group_is_written_through(self):
        # four circuits of a quarter of the cap each: the fourth closes the group
        quarter = Circuit(2)
        for _ in range(bis._GROUP_ROWS // 4):
            quarter.h(0)
        sink = io.BytesIO()
        enc = StreamEncoder(sink=sink)
        for _ in range(3):
            enc.add(quarter)
            assert sink.tell() == _SINK_HEAD
        enc.add(quarter)
        assert sink.tell() > _SINK_HEAD
        enc.finish()
        assert _unpadded(sink.getvalue()) == encode([quarter] * 4)


class TestStreamDecoder:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 10_000])
    @pytest.mark.parametrize("compress", [False, True])
    def test_chunked_equals_batch(self, chunk, compress):
        cs = [ghz(3), Circuit(2, 2).measure(0, 0).measure(1, 1),
              Circuit(4).barrier(0, 1, 2, 3).rx(2, 0.7), Circuit(1)]
        data = encode(cs, compress=compress)
        dec = StreamDecoder()
        got = []
        for i in range(0, len(data), chunk):
            got.extend(dec.feed(data[i:i + chunk]))
        dec.finish()
        assert got == cs

    def test_incremental_delivery(self):
        cs = [Circuit(1).h(0), Circuit(1).x(0)]
        data = encode(cs)
        first_len = 9 + 3 + 5  # header + circuit header + one record
        dec = StreamDecoder()
        got = dec.feed(data[:first_len])
        assert got == [cs[0]]
        got = dec.feed(data[first_len:])
        assert got == [cs[1]]
        dec.finish()

    def test_finish_mid_stream(self):
        dec = StreamDecoder()
        dec.feed(GOLDEN_H[:10])
        with pytest.raises(Truncated):
            dec.finish()

    def test_finish_on_empty(self):
        with pytest.raises(Truncated):
            StreamDecoder().finish()

    def test_trailing_bytes(self):
        dec = StreamDecoder()
        dec.feed(GOLDEN_H)
        with pytest.raises(TrailingBytes):
            dec.feed(b"junk")

    def test_finish_after_trailing_bytes_raises_them_again(self):
        dec = StreamDecoder()
        with pytest.raises(TrailingBytes) as fed:
            dec.feed(GOLDEN_H + b"junk")
        with pytest.raises(TrailingBytes) as finished:
            dec.finish()
        assert str(finished.value) == str(fed.value)
        assert "trailing bytes after last circuit" in str(fed.value)

    def test_errors_absolute_offsets(self):
        bad = bytearray(GOLDEN_H)
        bad[12] = 0x1F  # unknown opcode at absolute offset 12
        dec = StreamDecoder()
        dec.feed(bytes(bad[:11]))
        with pytest.raises(UnknownOpcode) as e:
            dec.feed(bytes(bad[11:]))
        assert e.value.offset == 12

    def test_operand_error_waits_for_whole_circuit(self):
        bad = bytearray(encode([Circuit(1).h(0).x(0)]))
        bad[13] = 9  # H q[9] in a 1-qubit circuit
        dec = StreamDecoder()
        assert dec.feed(bytes(bad[:-1])) == []
        with pytest.raises(BadOperand) as e:
            dec.feed(bytes(bad[-1:]))
        assert e.value.offset == 13

    def test_finish_reports_operand_error_before_truncation(self):
        bad = bytearray(encode([Circuit(1).h(0).x(0)]))
        bad[13] = 9
        dec = StreamDecoder()
        dec.feed(bytes(bad[:-1]))
        with pytest.raises(BadOperand) as e:
            dec.finish()
        assert e.value.offset == 13

    def test_bad_magic_streaming(self):
        dec = StreamDecoder()
        with pytest.raises(BadMagic):
            dec.feed(b"GARBAGE_PAST_FOUR_BYTES")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(circuits(max_len=10, measures=True), max_size=3),
           st.booleans(), st.integers(min_value=1, max_value=50))
    def test_random_chunked(self, cs, compress, chunk):
        data = encode(cs, compress=compress)
        dec = StreamDecoder()
        got = []
        for i in range(0, len(data), chunk):
            got.extend(dec.feed(data[i:i + chunk]))
        dec.finish()
        assert got == [flatten(c) for c in cs]


@st.composite
def wide_circuits(draw):
    """Over 128 qubits, so compressed indices take multi-byte varints.

    Half the qubit draws land at 128 or above, where a compressed index takes
    two bytes; angles are any finite double, so the angle bytes after a
    short walk can have their high bits set.
    """
    n = draw(st.integers(min_value=129, max_value=300))
    qubit = st.one_of(st.integers(min_value=128, max_value=n - 1),
                      st.integers(min_value=0, max_value=n - 1))
    angle = st.floats(allow_nan=False, allow_infinity=False)
    c = Circuit(n, 2)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        q0, q1 = draw(qubit), draw(qubit)
        if q0 == q1:
            c.rz(q0, draw(angle))
        else:
            c.cnot(q0, q1)
    if draw(st.booleans()):
        c.barrier(*sorted(set(draw(st.lists(qubit, min_size=1, max_size=5)))))
    c.measure(draw(qubit), 1)
    return c


def _outcome(read):
    """Decoded circuits, or the error's class and absolute offset."""
    try:
        return read()
    except BisDecodeError as e:
        return type(e), e.offset


def _outcome_text(read):
    """``_outcome`` with the error's text as well, for comparing readers."""
    try:
        return read()
    except BisDecodeError as e:
        return type(e), e.offset, str(e)


def _stream_read(data: bytes, cuts) -> list:
    dec = StreamDecoder()
    got = []
    prev = 0
    for cut in sorted(cuts) + [len(data)]:
        got.extend(dec.feed(data[prev:cut]))
        prev = cut
    dec.finish()
    return got


class TestStreamMatchesDecode:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_splits_match_one_shot(self, data):
        cs = data.draw(st.lists(
            st.one_of(circuits(max_len=10, measures=True), wide_circuits()),
            max_size=8))
        blob = bytearray(encode(cs, compress=data.draw(st.booleans())))
        at = st.integers(min_value=0, max_value=len(blob) - 1)
        damage = data.draw(st.sampled_from(["none", "corrupt", "truncate"]))
        if damage == "corrupt":
            for i in data.draw(st.lists(at, min_size=1, max_size=4)):
                blob[i] ^= data.draw(st.integers(min_value=1, max_value=255))
        elif damage == "truncate":
            del blob[data.draw(at):]
        blob = bytes(blob)
        cuts = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(blob)), max_size=8))
        assert _outcome_text(lambda: _stream_read(blob, cuts)) == \
            _outcome_text(lambda: decode(blob))

    def test_trailing_bytes_split_from_the_circuit(self):
        # a feed that ends one byte past the last circuit must not report
        # a byte count that differs from decode's, which sees them all
        data = GOLDEN_H + b"junk"
        cut = len(GOLDEN_H) + 1
        assert _outcome_text(lambda: _stream_read(data, [cut])) == \
            _outcome_text(lambda: decode(data))

    @pytest.mark.parametrize("fault", ["qubit", "cbit"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_bad_operand_mid_batch(self, compress, fault):
        # three fixed-shape circuits that one feed completes together; the
        # middle one is narrower, so its bad index fits the other two
        wide = Circuit(5).h(0).cnot(0, 1).rz(2, 0.5).measure(1, 0)
        cs = [wide, Circuit(3).h(0).cnot(0, 1).rz(2, 0.5).measure(1, 0), wide]
        if fault == "qubit":
            # after the middle circuit's three header varints and first opcode
            field = len(encode(cs[:1], compress=compress)) + 4
        else:  # the middle circuit's last field
            field = len(encode(cs[:2], compress=compress)) - (1 if compress else 4)
        blob = bytearray(encode(cs, compress=compress))
        blob[field] = 3
        blob = bytes(blob)
        assert _outcome(lambda: decode(blob)) == (BadOperand, field)
        assert _outcome(lambda: _stream_read(blob, [])) == (BadOperand, field)

    @pytest.mark.parametrize("fault", [False, True])
    def test_multi_byte_index_mid_batch(self, fault):
        # the wide circuit's two-byte index makes a fixed-size walk stop at
        # the rz's qubit byte; the angle bytes after it (9A 99 ...) are no
        # circuit header, so the batch must not read one there
        wide = Circuit(200).h(150).rz(0, -0.8)
        cs = [Circuit(3).h(0), wide, Circuit(1).h(0)]
        blob = bytearray(encode(cs, compress=True))
        if fault:
            # the first circuit's qubit, after its three header varints and opcode
            field = len(encode([], compress=True)) + 4
            blob[field] = 3
        blob = bytes(blob)
        assert _outcome_text(lambda: _stream_read(blob, [])) == \
            _outcome_text(lambda: decode(blob))
        if fault:
            assert _outcome(lambda: decode(blob)) == (BadOperand, field)


def _payload(c: Circuit, compress: bool) -> bytes:
    """One circuit's bytes (header and records) as a stream holds them."""
    return encode([c], compress=compress)[len(encode([], compress=compress)):]


def _stream_of(payloads, compress: bool) -> bytes:
    head = encode([], compress=compress)[:-1]  # without the count 0
    return head + bytes([len(payloads)]) + b"".join(payloads)


def _fixed(n: int) -> Circuit:
    return (Circuit(n, 1).h(0).cnot(0, n - 1).rz(1, -0.75)
            .u3(n - 1, 0.5, 1.5, -2.5).measure(n - 1, 0))


def _one_walk_batch(compress: bool, fault: str) -> bytes:
    """A barrier circuit, fixed-shape circuits, a two-byte index and a padded
    varint, each followed by fixed-shape circuits of other widths."""
    wide = Circuit(200).h(150).rz(0, -0.8)
    parts = [_payload(Circuit(4).h(1).barrier(0, 2, 3).x(2), compress),
             _payload(_fixed(3), compress), _payload(_fixed(5), compress),
             _payload(wide, compress), _payload(_fixed(4), compress)]
    # a padded varint: the index of H q[1] (compressed), or the count of a
    # one-qubit barrier (uncompressed), written as 0x8? 0x00
    last = _payload(Circuit(2).h(1), compress=True)[:-1] + b"\x81\x00"
    if not compress:
        last = (_payload(Circuit(2).barrier(1), compress=False)[:4]
                + b"\x81\x00" + (1).to_bytes(4, "little"))
    parts += [last, _payload(_fixed(2), compress), _payload(_fixed(3), compress)]
    blob = bytearray(_stream_of(parts, compress))
    if fault == "operand":
        blob[-1 if compress else -4] = 5  # the last measure's cbit
    elif fault == "truncate":
        del blob[-3:]
    return bytes(blob)


class TestOneWalk:
    """The stream decoder gathers at the offsets its scan records."""

    @pytest.mark.parametrize("compress", [False, True])
    def test_clean_feed_never_walks(self, compress, monkeypatch):
        walks = []
        real = bis._walk_offsets

        def spy(*args):
            walks.append(args[1])
            return real(*args)

        monkeypatch.setattr(bis, "_walk_offsets", spy)
        cs = [_fixed(n) for n in (2, 3, 5, 4)] + [ghz(6), Circuit(1)]
        data = encode(cs, compress=compress)
        for chunk in (7, 64, len(data)):
            dec = StreamDecoder()
            got = []
            for i in range(0, len(data), chunk):
                got.extend(dec.feed(data[i:i + chunk]))
            dec.finish()
            assert got == cs
        assert walks == []
        assert decode(data) == cs and walks  # the spy sees decode's walks

    @pytest.mark.parametrize("fault", ["none", "operand", "truncate"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_every_split_matches_one_shot(self, compress, fault):
        blob = _one_walk_batch(compress, fault)
        want = _outcome_text(lambda: decode(blob))
        if fault == "none":
            assert len(want) == 8
        for cut in range(len(blob) + 1):
            assert _outcome_text(lambda: _stream_read(blob, [cut])) == want, cut
        every = range(len(blob))
        assert _outcome_text(lambda: _stream_read(blob, every)) == want

    @pytest.mark.parametrize("compress", [False, True])
    def test_split_barrier_count_is_recorded_once(self, compress):
        # a feed that stops between a barrier's opcode and its count; the
        # fixed-shape circuits after it arrive in a later feed and must be
        # gathered at their own offsets.  The barrier record is two H
        # records long, so an offset list shifted by one stale entry would
        # still hold valid rows (H and X swapped)
        first = _payload(Circuit(2).barrier(0, 1), compress)
        alternating = Circuit(1).h(0).x(0).h(0).x(0).h(0)
        rest = [_payload(alternating, compress)] * 3
        blob = _stream_of([first] + rest, compress)
        cut = blob.index(bytes([0xA0])) + 1
        first_end = len(blob) - sum(map(len, rest))
        assert _stream_read(blob, [cut, first_end]) == decode(blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cuts_at_barrier_opcodes_match_one_shot(self, data):
        # barrier circuits, each followed by fixed-shape circuits of H and X
        # rows, all of one width; the feeds stop at or just after a
        # barrier's opcode, so before or inside its count, and at circuit
        # ends, so a later feed gathers fixed-shape circuits at offsets the
        # scan recorded.  Every byte but a barrier opcode is below 0xA0
        compress = data.draw(st.booleans())
        n = data.draw(st.integers(min_value=1, max_value=4))
        qubit = st.integers(min_value=0, max_value=n - 1)
        row = st.tuples(st.sampled_from(["h", "x"]), qubit)
        gates = st.lists(row, max_size=6)
        circuits = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            c = Circuit(n)
            for name, q in data.draw(gates):
                getattr(c, name)(q)
            c.barrier(*sorted(data.draw(st.sets(qubit, min_size=1))))
            for name, q in data.draw(gates):
                getattr(c, name)(q)
            circuits.append(c)
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                c = Circuit(n)
                for name, q in data.draw(st.lists(row, min_size=1,
                                                  max_size=6)):
                    getattr(c, name)(q)
                circuits.append(c)
        payloads = [_payload(c, compress) for c in circuits]
        blob = _stream_of(payloads, compress)
        ends = [len(blob) - sum(map(len, payloads[k:]))
                for k in range(1, len(payloads))]
        cuts = [p + data.draw(st.integers(min_value=0, max_value=1))
                for p, byte in enumerate(blob) if byte == 0xA0]
        cuts += data.draw(st.lists(st.sampled_from(ends)))
        assert _outcome_text(lambda: _stream_read(blob, cuts)) == \
            _outcome_text(lambda: decode(blob))


# compressed circuits with one index of 128 or more, a multi-octet varint,
# at each place in a record and in the body
_WIDE_INDEX = {
    "first_record": lambda: Circuit(200).h(150),
    "middle_record": lambda: Circuit(200).h(3).h(150).h(4),
    "last_record": lambda: Circuit(200).h(3).x(4).h(150),
    "rotation": lambda: Circuit(200).h(2).rz(130, 0.5),
    "two_qubit_control": lambda: Circuit(200).cnot(131, 2).h(1),
    "two_qubit_target": lambda: Circuit(200).cz(2, 199).x(0),
    "measured_qubit": lambda: Circuit(200, 1).h(0).measure(128, 0),
    "measured_cbit": lambda: Circuit(2, 200).h(0).measure(1, 150),
}


def _exact_offsets(cs, compress: bool) -> list:
    """Where every record of ``cs``, written one after another as a stream
    holds them, starts: each record is as long as it makes its circuit's
    bytes grow."""
    offs, at = [], 0
    for c in cs:
        empty = len(_payload(Circuit(c.num_qubits, c.num_cbits), compress))
        at += empty  # the header; a count below 128 takes one octet
        for ins in flatten(c).body:
            offs.append(at)
            at += len(_payload(Circuit._from_items(
                c.num_qubits, c.num_cbits, [ins]), compress)) - empty
    return offs


class TestGatherOffsets:
    """The gather returns None only where a walk by the fixed shape took its
    offsets and a multi-octet index made them wrong; exact offsets always
    gather."""

    @pytest.mark.parametrize("case", list(_WIDE_INDEX))
    def test_fixed_shape_walk_over_a_multi_octet_index(self, case):
        c = _WIDE_INDEX[case]()
        data = _payload(c, True)
        arr = np.frombuffer(data, dtype=np.uint8)
        layout = bis._LAYOUTS[True]
        o, fields = 0, []
        for _ in range(3):
            v, o = bis._read_varint(data, o, len(data))
            fields.append(v)
        nq, nc, m = fields
        offs = []
        at = bis._walk_offsets(data, o, len(data), m, layout.step, offs)
        # the walk sized every record, short of the end by the extra octet
        assert len(offs) == m == len(c) and at == len(data) - 1
        assert bis._gather(arr[:at], offs, [(m, nq, nc)], layout, {}) is None
        assert bis._decode_circuit(data, arr, 0, len(data), True, {})[0] is None
        assert decode(_stream_of([data], True)) == [c]

    @pytest.mark.parametrize("compress", [False, True])
    def test_batch_at_exact_offsets(self, compress):
        cs = [b() for b in _WIDE_INDEX.values()] + [
            _fixed(3), Circuit(4, 1).h(1).barrier(0, 2, 3).x(2).measure(3, 0),
            Circuit(200).barrier(*range(0, 200, 9)).cnot(199, 0), Circuit(1)]
        data = b"".join(_payload(c, compress) for c in cs)
        arr = np.frombuffer(data, dtype=np.uint8)
        offs = _exact_offsets(cs, compress)
        blocks = [(len(c), c.num_qubits, c.num_cbits) for c in cs]
        assert bis._gather(arr, offs, blocks, bis._LAYOUTS[compress], {}) \
            is not None
        assert bis._decode_batch(arr, offs, blocks, compress, {}) == cs
        assert decode(_stream_of([_payload(c, compress) for c in cs],
                                 compress)) == cs


def _reference(c: Circuit, compress: bool) -> bytes:
    """One circuit's bytes as a stream holds them, written record by record
    from its flat body as docs/bis-format.md lays them out."""
    def varint(v: int) -> bytes:
        out = bytearray()
        while v >> 7:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        return bytes(out + bytes([v]))

    def index(v: int) -> bytes:
        return varint(v) if compress else struct.pack("<I", v)

    flat = flatten(c)
    out = bytearray(varint(flat.num_qubits) + varint(flat.num_cbits)
                    + varint(len(flat.body)))
    for ins in flat.body:
        out.append(ins.opcode)
        if ins.kind is GateKind.BARRIER:
            out += varint(len(ins.qubits))
        out += b"".join(map(index, ins.qubits))
        if ins.cbit is not None:
            out += index(ins.cbit)
        out += struct.pack(f"<{len(ins.params)}d", *ins.params)
    return bytes(out)


def _rows(n: int, rows: int) -> Circuit:
    c = Circuit(n, 1)
    for i in range(rows):
        [c.h, c.x][i % 2](i % n)
    return c


@st.composite
def group_batches(draw, cap: int):
    """Circuits the group encoder must lay out as their own encodes would:
    empty, fixed-shape, barrier, compressed-wide and daggered-block
    circuits, and circuits of about ``cap`` rows."""
    def one():
        kind = draw(st.sampled_from(
            ["empty", "small", "barrier", "wide", "dagger", "cap"]))
        if kind == "empty":
            return Circuit(draw(st.integers(min_value=1, max_value=3)))
        if kind == "small":
            return draw(circuits(max_len=6, measures=True, barriers=False))
        if kind == "barrier":
            c = draw(circuits(max_len=4, barriers=False))
            return c.barrier(*range(c.num_qubits))
        if kind == "wide":
            return draw(wide_circuits())
        if kind == "dagger":
            inner = draw(circuits(max_len=5, barriers=False, min_qubits=2))
            return (Circuit(inner.num_qubits).h(0).sub(inner, dagger=True)
                    .cnot(0, 1))
        return _rows(2, draw(st.integers(min_value=max(cap - 1, 0),
                                         max_value=cap + 1)))
    return [one() for _ in range(draw(st.integers(min_value=0, max_value=8)))]


class TestGroupEncoder:
    """``encode(list)`` and ``StreamEncoder`` lay out groups of circuits in
    one pass; every byte matches each circuit's own encode."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_group_matches_single_encodes(self, data):
        cap = data.draw(st.sampled_from([1, 3, 8, 20]))
        compress = data.draw(st.booleans())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bis, "_GROUP_ROWS", cap)
            cs = data.draw(group_batches(cap))
            self._check(cs, compress, cap)

    @pytest.mark.parametrize("compress", [False, True])
    def test_at_the_module_cap(self, compress):
        cap = bis._GROUP_ROWS
        cs = [Circuit(1), _rows(3, cap - 1), Circuit(2), _rows(3, cap),
              ghz(3), _rows(3, cap + 1), Circuit(4).h(0).barrier(1, 3),
              _rows(3, 5), Circuit(200).h(150), Circuit(1)]
        self._check(cs, compress, cap)

    @pytest.mark.parametrize("compress", [False, True])
    def test_empty_circuits_at_group_edges(self, compress):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bis, "_GROUP_ROWS", 4)
            for cs in ([], [Circuit(1)] * 3,
                       [Circuit(1), _rows(2, 2), Circuit(2), _rows(2, 2),
                        Circuit(3)],
                       [Circuit(1), _rows(2, 4), Circuit(1), _rows(2, 3)]):
                self._check(cs, compress, 4)

    @staticmethod
    def _check(cs, compress: bool, cap: int) -> None:
        payloads = [_payload(c, compress) for c in cs]
        assert payloads == [_reference(c, compress) for c in cs]
        want = _stream_of(payloads, compress)
        assert encode(cs, compress=compress) == want
        enc = StreamEncoder(compress=compress)
        for c in cs:
            enc.add(c)
        assert enc.finish() == want
        # with a sink, whole circuits are written once a group closes, and
        # the circuits still pending never hold the cap's rows
        sink = io.BytesIO()
        enc = StreamEncoder(compress=compress, sink=sink)
        rows = [len(flatten(c)) for c in cs]
        for i, c in enumerate(cs):
            enc.add(c)
            written = sink.tell() - _SINK_HEAD
            done = [sum(map(len, payloads[:k])) for k in range(i + 2)]
            assert written in done
            assert sum(rows[done.index(written):i + 1]) < cap
        enc.finish()
        assert _unpadded(sink.getvalue()) == want


# the largest index of each varint length and the smallest of the next,
# then the largest index a register of 32-bit width holds
_VARINT_EDGES = [127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21,
                 (1 << 28) - 1, 1 << 28, (1 << 32) - 2]


def _edge_circuit(q: int) -> Circuit:
    """Index ``q`` in a 1Q, a rotation, a U3, a 2Q (as either qubit), a
    measure (as qubit and as cbit) and a barrier record, and a barrier of
    at least 128 qubits."""
    n = max(q + 1, 129)
    return (Circuit(n, n).h(q).rz(q, 0.25).u3(q, 1.0, -2.0, 3.0)
            .cnot(q, 0).cz(1, q).measure(q, 0).measure(0, q).barrier(0, q)
            .barrier(*sorted({*range(129), q})).x(q))


class TestVarintBoundaries:
    """Indices at each varint length's edges, in groups with narrow
    circuits: the bytes match the record-by-record writer and decode back."""

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("q", _VARINT_EDGES)
    def test_edge_index_in_every_record(self, q, compress):
        cs = [ghz(3), _edge_circuit(q), Circuit(2).h(1), _rows(2, 5)]
        TestGroupEncoder._check(cs, compress, bis._GROUP_ROWS)
        assert decode(encode(cs, compress=compress)) == [flatten(c) for c in cs]


class TestEncodeErrors:
    def test_register_too_wide(self):
        c = Circuit(1 << 33)
        with pytest.raises(BisEncodeError):
            encode([c])


# -- the per-record parser, kept as the oracle of the one decoder ----------------
#
# ``_careful_records`` is the parser that decoded every circuit holding a
# barrier, a compressed index >= 128 or any fault before the gather located
# faults itself; it moved here unchanged, with the names it used.

_read_varint = bis._read_varint
_LAYOUTS = bis._LAYOUTS
_BARRIER = bis._BARRIER
_UNPACK_U32 = struct.Struct("<I").unpack_from
_UNPACK_D = struct.Struct("<d").unpack_from
_UNPACK_3D = struct.Struct("<ddd").unpack_from


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


def _careful_decode(data: bytes) -> list:
    """``decode`` with every circuit's records parsed by the oracle."""
    end = len(data)
    compress, count, o = bis._parse_stream_header(data, end)
    out = []
    for _ in range(count):
        nq, o = _read_varint(data, o, end)
        nc, o = _read_varint(data, o, end)
        m, o = _read_varint(data, o, end)
        cols, o = _careful_records(data, o, end, m, nq, nc, compress, {})
        out.append((nq, nc, cols))
    if o != end:
        raise TrailingBytes("trailing bytes after last circuit", o)
    return out


def _columns_outcome(read):
    """Each circuit's widths and packed columns, or the error's class,
    offset and text."""
    try:
        return [(c.num_qubits, c.num_cbits, c._columns()) for c in read()]
    except BisDecodeError as e:
        return type(e), e.offset, str(e)


def _same_outcome(got, want) -> bool:
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return len(got) == len(want) and all(
        g[:2] == w[:2] and g[2].same(w[2]) for g, w in zip(got, want))


# widths whose indices take every varint length; index draws favour the edges
_WIDTHS = [1, 2, 3, 5, 12, 127, 128, 129, 300, 16385, (1 << 21) + 1,
           (1 << 28) + 1, (1 << 32) - 1]
_EDGES = [0, 1, 2, 127, 128, 299, (1 << 14) - 1, 1 << 14, (1 << 21) - 1,
          1 << 21, (1 << 28) - 1, 1 << 28, (1 << 32) - 2]
_OPCODES = sorted(KIND_BY_OPCODE)


def _fuzz_stream(rng) -> bytes:
    """A stream written record by record: random records, some with a bad
    operand, barriers of 1-300 qubits, varints of 1-5 octets and now and
    then padded; then left whole, corrupted, truncated, or given a byte
    more or less."""
    compress = rng.random() < 0.5

    def varint(v: int) -> bytes:
        out = bytearray()
        while v >> 7:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
        if rng.random() < 0.1 and len(out) < 5:  # padded to more octets
            out[-1] |= 0x80
            out += b"\x80" * rng.randrange(4 - len(out) + 1) + b"\x00"
        return bytes(out)

    def index(v: int) -> bytes:
        return varint(v) if compress else struct.pack("<I", v)

    def qubit(nq: int) -> int:
        if rng.random() < 0.02:
            return min(nq + rng.choice([0, 1, 200]), (1 << 32) - 1)
        if rng.random() < 0.5:
            return rng.choice([q for q in _EDGES if q < nq])
        return rng.randrange(nq)

    count = rng.choice([0, 1, 1, 1, 2, 2, 3])
    out = bytearray(encode([], compress=compress)[:-1] + varint(count))
    for _ in range(count):
        nq, nc = rng.choice(_WIDTHS), rng.choice([0, 1, 2, 130])
        m = rng.randint(0, 5)
        out += varint(nq) + varint(nc) + varint(m)
        for _ in range(m):
            op = rng.choice(_OPCODES + [_BARRIER] * 3)
            out.append(op)
            cls = op >> 5
            if cls == 5:
                qs = rng.sample(range(nq), min(nq, rng.choice([1, 2, 3, 129, 300])))
                if rng.random() < 0.03:
                    qs.append(qs[0])
                elif rng.random() < 0.01:
                    qs = []
                out += varint(len(qs)) + b"".join(map(index, qs))
                continue
            q0 = qubit(nq)
            out += index(q0)
            if cls == 1 or cls == 2:
                for _ in range(1 if cls == 1 else 3):
                    x = (rng.uniform(-7.0, 7.0) if rng.random() > 0.02
                         else rng.choice([math.inf, -math.inf, math.nan]))
                    out += struct.pack("<d", x)
            elif cls == 3:
                q1 = qubit(nq)
                while q1 == q0 and nq > 1 and rng.random() < 0.9:
                    q1 = qubit(nq)
                out += index(q1)
            elif cls == 4:
                out += index(rng.randrange(nc) if nc and rng.random() > 0.03
                             else nc + 1)
    damage = rng.random()
    if damage < 0.25:
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
    elif damage < 0.5:
        del out[rng.randrange(len(out)):]
    elif damage < 0.6:
        out.insert(rng.randint(0, len(out)), rng.randrange(256))
    elif damage < 0.7:
        del out[rng.randrange(len(out))]
    return bytes(out)


class TestOneDecoder:
    """``decode`` and ``StreamDecoder``, fed in chunks, agree with the
    per-record oracle on every stream: the same circuits, or the same
    error class, text and offset."""

    def test_fuzzed_streams_match_the_oracle(self):
        rng = random.Random(2323)
        seen = set()
        for n in range(20_000):
            blob = _fuzz_stream(rng)
            cuts = sorted(rng.randint(0, len(blob))
                          for _ in range(rng.randint(0, 2)))
            want = _columns_outcome(lambda: [
                Circuit._from_columns(*c) for c in _careful_decode(blob)])
            got = _columns_outcome(lambda: decode(blob))
            assert _same_outcome(got, want), (n, blob.hex())
            got = _columns_outcome(lambda: _stream_read(blob, cuts))
            assert _same_outcome(got, want), (n, blob.hex(), cuts)
            seen.add(want[0].__name__ if isinstance(want, tuple) else "ok")
        assert seen == {"ok", "BadMagic", "UnsupportedVersion", "ReservedBits",
                        "Truncated", "UnknownOpcode", "VarintTooLong",
                        "BadOperand", "TrailingBytes"}

    @pytest.mark.parametrize("compress", [False, True])
    def test_off_shape_feed_is_gathered_in_one_batch(self, compress, monkeypatch):
        # barriers, and indices of 128 and more (multi-octet when compressed),
        # in circuits that one feed completes together
        walks, batches = [], []
        real_decode, real_gather = bis._decode_circuit, bis._gather

        def decode_spy(*args):
            walks.append(args[2])
            return real_decode(*args)

        def gather_spy(arr, offs, blocks, *rest):
            batches.append(len(blocks))
            return real_gather(arr, offs, blocks, *rest)

        monkeypatch.setattr(bis, "_decode_circuit", decode_spy)
        monkeypatch.setattr(bis, "_gather", gather_spy)
        cs = [Circuit(4, 1).h(1).barrier(0, 2, 3).x(2).measure(3, 0), _fixed(3),
              Circuit(200).h(150).rz(0, -0.8).barrier(*range(0, 200, 7)),
              Circuit(200, 2).cnot(199, 3).measure(130, 1), ghz(5).barrier(4)]
        dec = StreamDecoder()
        assert dec.feed(encode(cs, compress=compress)) == cs
        dec.finish()
        assert walks == [] and batches == [len(cs)]
