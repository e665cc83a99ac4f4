"""Circuit model: instructions, nested sub-circuits, flattening, depth.

A circuit body is an ordered list of Instruction and SubcircuitInstance
elements.  Flat bodies (instructions only) are additionally kept in a packed
columnar form -- an opcode byte array plus operand/parameter arrays -- so
that serialization and structural equality run as bulk array operations.
The packed columns and the Instruction list are two views of the same body;
each is built lazily from the other and cached.  Every circuit starts with
columns only: one built empty, one that ``bis`` readers decode and one that
``bench.random_circuit`` writes as it draws.  Until its ``.body`` is read,
the gate methods and ``append_gate`` validate each row and append it to
growable column buffers, so no Instruction exists and the first encode
packs nothing.  Reading ``.body`` builds the Instruction list once, and the
body then stays a list: later appends go to it.  So do a ``.sub()``, a
dagger flag on any kind but X1, and an Instruction passed to ``append``,
which the columns cannot hold or which the caller already built.  A width
past 64 bits keeps a list from the start.

An Instruction is an immutable record, a ``tuple`` of ``(kind, qubits,
params, cbit, dagger)``.  ``Instruction(...)`` validates its arguments;
``Instruction._raw``, and the loops that build many rows inline, make one
from data already checked with a single ``tuple.__new__`` call.  Being
immutable, instructions and their operand tuples can be shared.  A body
built from columns holds one instance per distinct parameter-free row (1Q,
2Q, MEASURE), and the one-qubit rows it builds share one ``(q,)`` per
qubit.  Columns a reader decoded share one row table per read: equal such
rows in any circuits of one ``bis.decode`` call, or of one
``bis.StreamDecoder``, are the same object.  A body lets go of the table
once built, so the table lives only as long as its reader or a circuit of
it whose body is not yet built.  Other columns, packed from a caller's own
instructions or written by the generator, get a table per body.
Rotation, U3 and BARRIER rows are built per row.  Bodies from the QASM
reader (one object per repeated statement text), from basis lowering (one
object per value it lowers or keeps, except values that hold a zero angle,
all made in one place) and from the route builder (one object per repeated
input object) may also hold one instruction at many positions.  Lowering
builds each sequence on its input's operand tuple; the route builder gives
every instruction on one physical qubit, or one ordered pair, the same
tuple.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import islice
from operator import index as _as_index, itemgetter

import numpy as np

from .gates import (
    CLS_1Q, CLS_2Q, CLS_BARRIER, CLS_MEASURE, CLS_ROT, CLS_U3,
    DAGGER_SWAP, GateKind, KIND_BY_OPCODE, PARAM_COUNT, SELF_INVERSE,
    X1_DAGGER_OPCODE,
)


class CircuitError(ValueError):
    """Invalid instruction, operand, or circuit composition."""


def _same_float(a: float, b: float) -> bool:
    # bit-exact: distinguishes 0.0 from -0.0 (NaN never passes validation)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# A namedtuple's field getters are C descriptors that read any tuple by
# index; Instruction borrows them and none of the namedtuple's methods
_Fields = namedtuple("_Fields", "kind qubits params cbit dagger")


class Instruction(tuple):
    """One gate, measurement, or barrier application.

    An immutable record: a ``tuple`` of ``(kind, qubits, params, cbit,
    dagger)`` whose fields read through C getters.  ``Instruction(...)``
    validates its arguments; ``_raw`` is the trusted constructor for data
    already checked, one ``tuple.__new__`` call, which hot loops make
    inline.  An instruction equals only another instruction, never a plain
    tuple; angles compare bit-exactly (0.0 is not -0.0), and instructions
    neither hash nor order.  Instructions may share their ``qubits`` tuple
    (see the module docstring).

    ``dagger`` marks the instruction as the adjoint of its kind; flatten()
    resolves the flag for every kind except X1, whose adjoint is not in the
    gate set.
    """

    __slots__ = ()

    kind = _Fields.kind
    qubits = _Fields.qubits
    params = _Fields.params
    cbit = _Fields.cbit
    dagger = _Fields.dagger

    def __new__(cls, kind: GateKind, qubits, params=(), cbit: int | None = None,
                dagger: bool = False):
        return _new(cls, _checked(kind, qubits, params, cbit, dagger))

    @classmethod
    def _raw(cls, kind, qubits, params, cbit, dagger):
        # trusted constructor for pre-validated data
        return _new(cls, (kind, qubits, params, cbit, dagger))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, so through validation
        return tuple(self)

    @property
    def opcode(self) -> int:
        if self.dagger and self.kind is _X1:
            return X1_DAGGER_OPCODE
        return self.kind._value_

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            # tuple's own __eq__, reflected, would match a plain tuple of
            # the same fields
            return False if isinstance(other, tuple) else NotImplemented
        return (self.kind is other.kind and self.qubits == other.qubits
                and self.cbit == other.cbit and self.dagger == other.dagger
                and len(self.params) == len(other.params)
                and all(_same_float(a, b) for a, b in zip(self.params, other.params)))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def _unordered(self, other):
        raise TypeError("instructions have no order")

    # raising, not NotImplemented: tuple's reflected comparison would answer
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __hash__ = None

    def __repr__(self):
        bits = [self.kind.name, ",".join(f"q{q}" for q in self.qubits)]
        if self.params:
            bits.append("(" + ",".join(repr(p) for p in self.params) + ")")
        if self.cbit is not None:
            bits.append(f"c{self.cbit}")
        if self.dagger:
            bits.append("dag")
        return "<" + " ".join(bits) + ">"


_new = tuple.__new__
# a C callable to map over a body: ~20% faster than a comprehension
# reading .qubits
_qubits_of = itemgetter(1)
_X1 = GateKind.X1
_X1_CODE = _X1._value_
_MEASURE = GateKind.MEASURE
_MEASURE_CODE = _MEASURE._value_


def dagger_instruction(ins: Instruction) -> Instruction:
    """The adjoint of a single instruction (X1 keeps a dagger flag)."""
    k = ins.kind
    if k is GateKind.MEASURE:
        raise CircuitError("MEASURE cannot be daggered")
    if k in SELF_INVERSE:
        return ins if not ins.dagger else Instruction._raw(k, ins.qubits, ins.params, None, False)
    if k in DAGGER_SWAP:
        return Instruction._raw(DAGGER_SWAP[k], ins.qubits, (), None, False)
    if k is GateKind.X1:
        return Instruction._raw(k, ins.qubits, (), None, not ins.dagger)
    if k in (GateKind.RX, GateKind.RY, GateKind.RZ):
        return Instruction._raw(k, ins.qubits, (-ins.params[0],), None, False)
    if k is GateKind.U3:
        t, p, l = ins.params
        return Instruction._raw(k, ins.qubits, (-t, -l, -p), None, False)
    raise CircuitError(f"no dagger rule for {k.name}")  # pragma: no cover


def _integer(value, what: str) -> int:
    # any integer, NumPy's too, but not a bool
    if value.__class__ is bool:
        raise CircuitError(f"{what} must be an integer, got {value!r}")
    return _as_index(value)


def _checked(kind: GateKind, qubits, params, cbit, dagger) -> tuple:
    """``(kind, qubits, params, cbit, dagger)`` of a valid instruction.

    The one check of an instruction's own fields, for ``Instruction(...)``
    and for the gate builders that write rows without one.  Operands become
    plain ints and angles plain floats; ``check_operands`` then fits them to
    a circuit's widths.
    """
    qubits = tuple(qubits)
    if bool in map(type, qubits):
        raise CircuitError(f"qubits must be integers, got {qubits}")
    qubits = tuple(map(_as_index, qubits))
    params = tuple(map(float, params))
    kcls = kind.opclass
    if kcls == CLS_BARRIER:
        if not qubits:
            raise CircuitError("BARRIER needs at least one qubit")
    elif kcls == CLS_2Q:
        if len(qubits) != 2:
            raise CircuitError(f"{kind.name} takes 2 qubits, got {len(qubits)}")
    elif len(qubits) != 1:
        raise CircuitError(f"{kind.name} takes 1 qubit, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"{kind.name} qubits must be distinct: {qubits}")
    want = PARAM_COUNT[kcls]
    if len(params) != want:
        raise CircuitError(f"{kind.name} takes {want} params, got {len(params)}")
    for p in params:
        if not math.isfinite(p):
            raise CircuitError(f"{kind.name} param not finite: {p!r}")
    if kcls == CLS_MEASURE:
        if cbit is None:
            raise CircuitError("MEASURE needs a classical bit")
        cbit = _integer(cbit, "cbit")
        if dagger:
            raise CircuitError("MEASURE cannot be daggered")
    elif cbit is not None:
        raise CircuitError(f"{kind.name} takes no classical bit")
    return kind, qubits, params, cbit, bool(dagger)


def check_operands(ins, num_qubits: int, num_cbits: int) -> None:
    """Raise ``CircuitError`` unless ``ins``'s qubits and bit fit the widths.

    ``ins`` is an instruction, or the fields ``_checked`` returns.
    """
    kind, qubits, _, cbit, _ = ins
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise CircuitError(
                f"qubit {q} out of range for {num_qubits}-qubit circuit")
    if kind is _MEASURE and not 0 <= cbit < num_cbits:
        raise CircuitError(f"cbit {cbit} out of range for {num_cbits} cbits")


def _resolve(ins: Instruction, block_dagger: bool) -> Instruction:
    """Fold an instruction's own dagger flag with an enclosing block's."""
    eff = ins.dagger ^ block_dagger
    if ins.kind is GateKind.MEASURE:
        if eff:
            raise CircuitError("MEASURE cannot be daggered")
        return ins
    if not eff:
        if not ins.dagger:
            return ins
        return Instruction._raw(ins.kind, ins.qubits, ins.params, ins.cbit, False)
    plain = ins if not ins.dagger else Instruction._raw(ins.kind, ins.qubits, ins.params, ins.cbit, False)
    return dagger_instruction(plain)


class SubcircuitInstance:
    """A placement of one circuit inside another (wires map identically)."""

    __slots__ = ("circuit", "dagger", "name")

    def __init__(self, circuit: "Circuit", dagger: bool = False, name: str | None = None):
        self.circuit = circuit
        self.dagger = bool(dagger)
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, SubcircuitInstance):
            return NotImplemented
        return (self.dagger == other.dagger and self.name == other.name
                and self.circuit == other.circuit)

    __hash__ = None

    def __repr__(self):
        tag = self.name or self.circuit.name or "circuit"
        return f"<sub {tag}{' dag' if self.dagger else ''}>"


class _Columns:
    """Packed flat body: one row per instruction.

    code: opcode byte; a: qubit (or qubit count for BARRIER); b: second qubit
    (class 3), cbit (class 4), else -1; params: rotation/U3 angles in body
    order; extra: BARRIER qubit pool in body order.  shared: the
    ``(opcode, a, b) -> Instruction`` table of parameter-free rows that
    materializing these columns fills, owned by the reader that decoded
    them; None for a table of this body's own, and once the body is built.
    """

    __slots__ = ("code", "a", "b", "params", "extra", "shared")

    def __init__(self, code, a, b, params, extra, shared=None):
        self.code = code
        self.a = a
        self.b = b
        self.params = params
        self.extra = extra
        self.shared = shared

    @classmethod
    def from_lists(cls, code, a, b, params, extra, shared=None) -> "_Columns":
        return cls(np.array(code, dtype=np.uint8), np.array(a, dtype=np.int64),
                   np.array(b, dtype=np.int64),
                   np.array(params, dtype=np.float64),
                   np.array(extra, dtype=np.int64), shared)

    def __len__(self):
        return len(self.code)

    def same(self, other: "_Columns") -> bool:
        return (self.code.tobytes() == other.code.tobytes()
                and self.a.tobytes() == other.a.tobytes()
                and self.b.tobytes() == other.b.tobytes()
                and self.params.tobytes() == other.params.tobytes()
                and self.extra.tobytes() == other.extra.tobytes())

    def extended(self, tail: "_Columns") -> "_Columns":
        """New columns: these rows, then ``tail``'s, sharing this row table.

        ``tail`` holds growable buffers (a bytearray and lists).  Neither
        side is written to; an array ``tail`` adds nothing to is reused.
        """
        return _Columns(*[np.concatenate((mine, more)) if len(more) else mine
                          for mine, more in ((self.code, tail.code),
                                             (self.a, tail.a), (self.b, tail.b),
                                             (self.params, tail.params),
                                             (self.extra, tail.extra))],
                        self.shared)


# the columns of every circuit built empty, never written to
_NO_ROWS = _Columns.from_lists([], [], [], [], [])
# operands live in int64 columns; a wider circuit keeps its body as a list
_I64_MAX = 2**63 - 1


def _pack_body(body) -> _Columns:
    # the two dense columns in one comprehension each, then the rows that
    # need more than their kind and first qubit
    code = bytearray([ins.kind._value_ for ins in body])
    a = [ins.qubits[0] for ins in body]
    b = [-1] * len(code)
    params: list[float] = []
    extra: list[int] = []
    # opcode ranges, not op >> 5 and class tests: ~8% faster
    for i, op in enumerate(code):
        if op < 0x20:  # CLS_1Q
            if op == _X1_CODE and body[i].dagger:
                code[i] = X1_DAGGER_OPCODE
        elif op < 0x60:  # CLS_ROT, CLS_U3
            params += body[i].params
        elif op < 0x80:  # CLS_2Q
            b[i] = body[i].qubits[1]
        elif op < 0xA0:  # CLS_MEASURE
            b[i] = body[i].cbit
        else:  # CLS_BARRIER
            qubits = body[i].qubits
            a[i] = len(qubits)
            extra += qubits
    return _Columns.from_lists(code, a, b, params, extra)


def _unpack_body(cols: _Columns) -> list[Instruction]:
    out: list[Instruction] = []
    app = out.append
    new, ins_type = _new, Instruction
    # parameter-free rows (classes 1Q, 2Q, MEASURE) are fully named by
    # (opcode, a, b): each distinct row is built once and shared by every
    # body of the read that decoded it, which is safe because instructions
    # are immutable
    shared = {} if cols.shared is None else cols.shared
    lookup = shared.get
    # one (q,) per qubit: the rows of this body on one qubit share it
    ones: dict[int, tuple] = {}
    one = ones.get
    params = cols.params.tolist()
    extra = cols.extra.tolist()
    pi = 0
    xi = 0
    for row in zip(cols.code.tolist(), cols.a.tolist(), cols.b.tolist()):
        ins = lookup(row)
        if ins is None:
            op, av, bv = row
            kind = KIND_BY_OPCODE[op]
            cls = op >> 5
            if cls == CLS_2Q:
                ins = shared[row] = new(ins_type, (kind, (av, bv), (), None, False))
            elif cls == CLS_BARRIER:
                ins = new(ins_type, (kind, tuple(extra[xi:xi + av]), (), None, False))
                xi += av
            else:
                qs = one(av)
                if qs is None:
                    qs = ones[av] = (av,)
                if cls == CLS_1Q:
                    ins = shared[row] = new(
                        ins_type, (kind, qs, (), None, op == X1_DAGGER_OPCODE))
                elif cls == CLS_ROT:
                    ins = new(ins_type, (kind, qs, (params[pi],), None, False))
                    pi += 1
                elif cls == CLS_U3:
                    ins = new(ins_type,
                              (kind, qs, tuple(params[pi:pi + 3]), None, False))
                    pi += 3
                else:
                    ins = shared[row] = new(ins_type, (kind, qs, (), bv, False))
        app(ins)
    # the body is built: let go of the read's table, which then lives only
    # as long as its reader or a circuit not yet materialized
    cols.shared = None
    return out


class Circuit:
    """A quantum circuit over ``num_qubits`` wires and ``num_cbits`` bits."""

    __slots__ = ("num_qubits", "num_cbits", "name", "_items", "_cols",
                 "_tail", "_subs", "_dagger_fixups")

    def __init__(self, num_qubits: int, num_cbits: int | None = None,
                 name: str | None = None):
        num_qubits = _integer(num_qubits, "num_qubits")
        if num_qubits < 0:
            raise CircuitError("num_qubits must be >= 0")
        num_cbits = (num_qubits if num_cbits is None
                     else _integer(num_cbits, "num_cbits"))
        if num_cbits < 0:
            raise CircuitError("num_cbits must be >= 0")
        self.num_qubits = num_qubits
        self.num_cbits = num_cbits
        self.name = name
        self._items: list | None = (
            [] if num_qubits > _I64_MAX or num_cbits > _I64_MAX else None)
        self._cols: _Columns | None = _NO_ROWS
        self._tail: _Columns | None = None
        self._subs = 0           # SubcircuitInstance elements in _items
        self._dagger_fixups = 0  # instructions whose dagger flag must resolve

    @classmethod
    def _from_columns(cls, num_qubits, num_cbits, cols: _Columns, name=None):
        self = object.__new__(cls)
        self.num_qubits = num_qubits
        self.num_cbits = num_cbits
        self.name = name
        self._items = None
        self._cols = cols
        self._tail = None
        self._subs = 0
        self._dagger_fixups = 0
        return self

    @classmethod
    def _from_items(cls, num_qubits, num_cbits, items: list, name=None):
        # trusted: flat instructions already checked against this width, no
        # dagger flag left to resolve; the circuit takes ownership of items
        self = cls._from_columns(num_qubits, num_cbits, None, name)
        self._items = items
        return self

    # -- body views ---------------------------------------------------------
    #
    # Until its body is read, a circuit holds columns: _cols, finalized and
    # never written to, then _tail, the rows the builders have appended
    # since, in growable buffers (None when there are none).  Reading .body
    # builds the instruction list once; from then on _items is the body,
    # appends go to it, and _cols is a cache of its packing, or None.

    @property
    def body(self) -> list:
        """Body elements, in order.  Treat as read-only; use append()."""
        if self._items is None:
            self._items = _unpack_body(self._columns())
        return self._items

    def _columns(self) -> _Columns:
        if self._tail is not None:
            self._cols = self._cols.extended(self._tail)
            self._tail = None
        elif self._cols is None:
            self._cols = _pack_body(self._items)
        return self._cols

    def __len__(self):
        if self._items is None:
            n = len(self._cols)
            return n if self._tail is None else n + len(self._tail)
        return len(self._items)

    # -- building -----------------------------------------------------------

    def append(self, item) -> None:
        if isinstance(item, Instruction):
            check_operands(item, self.num_qubits, self.num_cbits)
            if item.dagger and item.kind is not _X1:
                self._dagger_fixups += 1
        elif isinstance(item, SubcircuitInstance):
            sub = item.circuit
            if sub.num_qubits > self.num_qubits or sub.num_cbits > self.num_cbits:
                raise CircuitError(
                    f"sub-circuit needs {sub.num_qubits}q/{sub.num_cbits}c, parent has "
                    f"{self.num_qubits}q/{self.num_cbits}c")
            if sub is self or _contains(sub, self):
                raise CircuitError("circular sub-circuit containment")
            self._subs += 1
        else:
            raise CircuitError(f"cannot append {type(item).__name__} to circuit")
        self.body.append(item)
        self._cols = None

    def extend(self, items) -> None:
        for item in items:
            self.append(item)

    def append_gate(self, kind: GateKind, qubits, params=(), cbit=None,
                    dagger: bool = False) -> "Circuit":
        """Append one instruction given by its fields; raises as
        ``Instruction(...)`` and ``append`` do."""
        fields = _checked(kind, qubits, params, cbit, dagger)
        kind, qubits, params, cbit, dagger = fields
        if self._items is not None or (dagger and kind is not _X1):
            # a read body, or a flag only an instruction can hold
            self.append(_new(Instruction, fields))
            return self
        check_operands(fields, self.num_qubits, self.num_cbits)
        tail = self._tail
        if tail is None:
            tail = self._tail = _Columns(bytearray(), [], [], [], [])
        op = kind._value_
        kcls = kind.opclass
        if kcls == CLS_2Q:
            a, b = qubits
        elif kcls == CLS_MEASURE:
            a, b = qubits[0], cbit
        elif kcls == CLS_BARRIER:
            a, b = len(qubits), -1
            tail.extra += qubits
        else:
            a, b = qubits[0], -1
            tail.params += params
            if dagger:
                op = X1_DAGGER_OPCODE
        tail.code.append(op)
        tail.a.append(a)
        tail.b.append(b)
        return self

    # Gate builders; each returns self so circuits can be chained together.
    def i(self, q): return self.append_gate(GateKind.I, (q,))
    def h(self, q): return self.append_gate(GateKind.H, (q,))
    def x(self, q): return self.append_gate(GateKind.X, (q,))
    def y(self, q): return self.append_gate(GateKind.Y, (q,))
    def z(self, q): return self.append_gate(GateKind.Z, (q,))
    def s(self, q): return self.append_gate(GateKind.S, (q,))
    def sdg(self, q): return self.append_gate(GateKind.SDG, (q,))
    def t(self, q): return self.append_gate(GateKind.T, (q,))
    def tdg(self, q): return self.append_gate(GateKind.TDG, (q,))

    def x1(self, q, dagger=False):
        return self.append_gate(GateKind.X1, (q,), dagger=dagger)

    def rx(self, q, theta): return self.append_gate(GateKind.RX, (q,), (theta,))
    def ry(self, q, theta): return self.append_gate(GateKind.RY, (q,), (theta,))
    def rz(self, q, theta): return self.append_gate(GateKind.RZ, (q,), (theta,))

    def u3(self, q, theta, phi, lam):
        return self.append_gate(GateKind.U3, (q,), (theta, phi, lam))

    def cnot(self, c, t): return self.append_gate(GateKind.CNOT, (c, t))
    def cz(self, a, b): return self.append_gate(GateKind.CZ, (a, b))
    def swap(self, a, b): return self.append_gate(GateKind.SWAP, (a, b))

    def measure(self, q, c):
        # compile_route's set-up makes 2,736 of these calls; plain ints in
        # range pass every check, so the row goes straight into the tail.
        # Through append_gate alone that set-up was no faster than a list.
        tail = self._tail
        if (tail is not None and q.__class__ is int and c.__class__ is int
                and 0 <= q < self.num_qubits and 0 <= c < self.num_cbits):
            tail.code.append(_MEASURE_CODE)
            tail.a.append(q)
            tail.b.append(c)
            return self
        return self.append_gate(_MEASURE, (q,), cbit=c)

    def barrier(self, *qubits):
        return self.append_gate(GateKind.BARRIER, qubits)

    def sub(self, circuit: "Circuit", dagger=False, name=None):
        self.append(SubcircuitInstance(circuit, dagger=dagger, name=name))
        return self

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.num_qubits != other.num_qubits or self.num_cbits != other.num_cbits:
            return False
        if len(self) != len(other):
            return False
        # the columns hold no dagger flag but X1's: bodies with sub-circuits
        # or flags still to resolve compare instruction by instruction
        if not (self._subs or other._subs
                or self._dagger_fixups or other._dagger_fixups):
            return self._columns().same(other._columns())
        return self.body == other.body

    __hash__ = None

    def __copy__(self) -> "Circuit":
        # the two share only finalized columns, which nothing writes to
        items = self._items
        cols = self._columns() if items is None else self._cols
        new = Circuit._from_columns(self.num_qubits, self.num_cbits, cols, self.name)
        new._items = None if items is None else list(items)
        new._subs, new._dagger_fixups = self._subs, self._dagger_fixups
        return new

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Circuit{tag} {self.num_qubits}q/{self.num_cbits}c, {len(self)} elements>"


def _contains(root: Circuit, target: Circuit) -> bool:
    """Whether ``target`` is a sub-circuit of ``root`` at any depth.

    Each definition is visited once, however many placements share it.
    """
    seen = {id(root)}
    stack = [root]
    while stack:
        c = stack.pop()
        if not c._subs:  # a body not read, or flat, holds no sub-circuit
            continue
        for el in c._items:
            if isinstance(el, SubcircuitInstance):
                sub = el.circuit
                if sub is target:
                    return True
                if id(sub) not in seen:
                    seen.add(id(sub))
                    stack.append(sub)
    return False


def flatten(c: Circuit) -> Circuit:
    """Expand sub-circuits and resolve dagger flags.

    Daggered blocks reverse instruction order and take each instruction's
    adjoint; only X1 keeps a dagger flag in the output.  Returns ``c`` itself
    when it is already flat.
    """
    if c._items is None or (c._subs == 0 and c._dagger_fixups == 0):
        return c
    out: list[Instruction] = []
    # a stack of (rest of a body, its dagger flag): no recursion limit
    stack = [(iter(c._items), False)]
    while stack:
        seq, dagger = stack[-1]
        for el in seq:
            if isinstance(el, SubcircuitInstance):
                d, body = dagger ^ el.dagger, el.circuit.body
                stack.append((reversed(body) if d else iter(body), d))
                break
            out.append(_resolve(el, dagger))
        else:
            stack.pop()
    return Circuit._from_items(c.num_qubits, c.num_cbits, out, c.name)


def split_trailing_measures(c: Circuit) -> tuple[Circuit, list[Instruction]]:
    """The flat circuit without its trailing MEASURE run, and that run.

    Raises CircuitError if a measurement sits anywhere else.  Without a
    trailing measurement the circuit part is ``flatten(c)`` itself.
    """
    flat = flatten(c)
    body = flat.body
    cut = len(body)
    while cut and body[cut - 1].kind is _MEASURE:
        cut -= 1
    for ins in islice(body, cut):  # ~1.5x faster than any() over a slice
        if ins.kind is _MEASURE:
            raise CircuitError("measurement must be final")
    if cut == len(body):
        return flat, []
    gates = Circuit._from_items(flat.num_qubits, flat.num_cbits, body[:cut],
                                flat.name)
    return gates, body[cut:]


def depth(c: Circuit) -> int:
    """Greedy-layering depth over qubit wires (empty circuit: 0).

    Every flat instruction, including MEASURE and BARRIER, occupies one layer
    on each of its qubits.
    """
    flat = flatten(c)
    if flat._items is None:  # packed: read the wires without building a body
        return layered_depth(flat.num_qubits, _column_qubits(flat._columns()))
    return layered_depth(flat.num_qubits, map(_qubits_of, flat.body))


def _column_qubits(cols: _Columns) -> list:
    """Each packed row's qubits, as its instruction would hold them."""
    extra = cols.extra.tolist()
    out = []
    app = out.append
    xi = 0
    for op, a, b in zip(cols.code.tolist(), cols.a.tolist(), cols.b.tolist()):
        cls = op >> 5
        if cls == CLS_2Q:
            app((a, b))
        elif cls == CLS_BARRIER:
            app(extra[xi:xi + a])
            xi += a
        else:
            app((a,))
    return out


def layered_depth(num_qubits: int, operands) -> int:
    """``depth`` of instructions given only by their qubit tuples, in order."""
    level = [0] * num_qubits
    for qs in operands:
        if len(qs) == 1:
            level[qs[0]] += 1
        elif len(qs) == 2:
            a, b = qs
            la, lb = level[a], level[b]
            level[a] = level[b] = (la if la > lb else lb) + 1
        else:  # a barrier over more than two wires
            layer = 1 + max(level[q] for q in qs)
            for q in qs:
                level[q] = layer
    # each wire's level only grows, so the deepest wire holds the top layer
    return max(level, default=0)


def gate_counts(c: Circuit) -> Counter:
    """Flat instruction counts by kind (daggered X1 counts as X1)."""
    return Counter(ins.kind for ins in flatten(c).body)
