"""Wire codec: every protocol payload <-> length-prefixed frames.

The simulator passes payload dataclasses between processes by reference;
the live runtime cannot, so this module gives each protocol dataclass a
registered wire name and one loss-free binary encoding.

**Payload**: one tag byte per value, varint lengths, zigzag-varint
integers, struct-packed doubles. Registered dataclasses are encoded as a
varint *type id* followed by the field values in declaration order — no
names on the wire. The type-id and field tables are interned
deterministically from the registry (sorted wire names), so every process
that bootstraps the same protocol derives the same tables; see
:func:`wire_tables`. A tuple or list of at least
:data:`COLUMN_CROSSOVER` rows of one registered dataclass (the commands of
a batch, the replies of a reply batch) is written as a **column block**
instead: the row count, then one column per field, each packed and
unpacked by bulk calls rather than one interpreter step per value.

**Frame**: a 4-byte big-endian length followed by the body; the body is
the magic byte ``0xB5``, varint-length sender and dest ids, and the
encoded payload. This module is the only one that knows the format: a
body that does not start with the magic byte, or a payload whose first
byte is not a tag, raises :class:`CodecError`, which the live transport
drops as a poison frame while keeping the stream.

The codec doubles as the **payload-size estimator** for the simulator:
:func:`estimate_size` returns the byte count the live transport would put
on the wire for a payload, so simulated byte accounting (the T4
message-cost experiment) reflects real frame sizes instead of a hardcoded
256-byte default. Unencodable payloads (bare test objects, baseline-only
messages) fall back to that legacy default rather than failing.
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import fields, is_dataclass
from itertools import accumulate, chain
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.types import NodeId


class CodecError(ReproError):
    """Payload cannot be encoded/decoded by the wire codec."""


#: fallback estimate for payloads outside the registered protocol
#: (kept equal to the historical hardcoded default).
DEFAULT_ESTIMATE = 256

#: refuse frames larger than this (corrupt length prefix / abuse guard).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: first byte of every frame body; anything else is not a frame.
BINARY_MAGIC = 0xB5

_REGISTRY: dict[str, type] = {}
_BY_TYPE: dict[type, str] = {}
_bootstrapped = False
_BOOTSTRAP_LOCK = threading.Lock()

#: types whose instances may be byte-memoized across codec calls. Only
#: for deeply immutable values that fan out across several envelopes per
#: commit: the same ``Batch`` object rides the leader's ``Accept`` and
#: ``Decide`` wire frames *and* every replica's ``WalAccept``/``WalDecide``
#: records, so caching its encoded run turns up to four full encode passes
#: per batch into one encode plus three splices. The memo keys on object
#: identity (one entry per type), which is sound exactly because the
#: values are frozen: the same object always encodes to the same bytes.
_CACHEABLE: set[type] = set()
#: wire-table type ids of the cacheable types (rebuilt with the tables).
_CACHEABLE_TIDS: frozenset[int] = frozenset()
#: per-type one-entry memo: type -> (object, its encoded byte run).
_PAYLOAD_MEMO: dict[type, tuple[Any, bytes]] = {}


def register(cls: type, name: str | None = None) -> type:
    """Register a dataclass under a wire name (idempotent; returns ``cls``)."""
    if not is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass")
    wire_name = name or cls.__name__
    existing = _REGISTRY.get(wire_name)
    if existing is not None and existing is not cls:
        raise CodecError(f"wire name {wire_name!r} already taken by {existing!r}")
    _REGISTRY[wire_name] = cls
    _BY_TYPE[cls] = wire_name
    return cls


def registered_names() -> list[str]:
    """Sorted wire names of every registered payload type."""
    _bootstrap()
    return sorted(_REGISTRY)


def registered_type(name: str) -> type:
    _bootstrap()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise CodecError(f"unknown wire type {name!r}")
    return cls


def _bootstrap() -> None:
    """Register the whole protocol surface (lazy: avoids import cycles).

    Thread-safe: concurrent clients (the shard client's parallel group
    submits, threaded map refreshes, bench fan-out arms) may race to the
    first codec call. The done-flag must only be published *after* the
    full registry is built — a reader that returns early on a half-built
    table sees arbitrary types as unencodable.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    with _BOOTSTRAP_LOCK:
        if _bootstrapped:
            return
        _register_protocol()
        _bootstrapped = True


def _register_protocol() -> None:
    from repro import types as t
    from repro.consensus import messages as m
    from repro.consensus.ballot import Ballot
    from repro.consensus.interface import Batch, InstanceMessage, Noop
    from repro.core import client as cl
    from repro.core import command as cmd
    from repro.core import observer as ob
    from repro.core import reconfig as rc
    from repro.core import state_transfer as st
    from repro.net import admin
    from repro.shard import messages as sm
    from repro.shard import shardmap as smap
    from repro.storage import records as sr

    protocol: Iterable[type] = (
        # shared primitives
        t.CommandId,
        t.Command,
        t.Reply,
        t.Membership,
        t.Configuration,
        t.VirtualLogPosition,
        t.Decision,
        Ballot,
        # engine inner messages
        m.Prepare,
        m.Promise,
        m.PrepareNack,
        m.Accept,
        m.Accepted,
        m.AcceptNack,
        m.Decide,
        m.Heartbeat,
        m.HeartbeatAck,
        m.ProposeForward,
        m.CatchupRequest,
        m.CatchupReply,
        # engine multiplexing envelope + fillers
        InstanceMessage,
        Noop,
        Batch,
        # client protocol
        cl.ClientRequest,
        cl.ClientReply,
        cl.RequestBatch,
        cl.ReplyBatch,
        cl.Redirect,
        # reconfiguration protocol
        cmd.ReconfigCommand,
        cmd.ReconfigRequest,
        rc.EpochAnnounce,
        ob.ObserverSubscribe,
        ob.ObserverBootstrap,
        ob.ObserverUpdate,
        # state transfer
        st.SnapshotRequest,
        st.SnapshotReply,
        st.SnapshotUnavailable,
        # fault-injection admin protocol (serve --chaos only)
        admin.ChaosCommand,
        admin.ChaosAck,
        # observability admin protocol (the #metrics endpoint)
        admin.MetricsRequest,
        admin.MetricsSnapshot,
        # shard protocol: the map itself, its fetch, redirects
        smap.KeyRange,
        smap.ShardAssignment,
        smap.GroupInfo,
        smap.ShardMap,
        sm.ShardMapRequest,
        sm.ShardMapReply,
        sm.WrongShard,
        # durable storage records (WAL + checkpoints; disk, not wire)
        sr.WalPromise,
        sr.WalAccept,
        sr.WalDecide,
        sr.WalEpochOpen,
        sr.WalDirtyOverlap,
        sr.CheckpointRecord,
    )
    for cls in protocol:
        register(cls)
    # The batch payload is the one value that crosses many envelopes per
    # commit; everything else on the wire is either small or unique.
    _CACHEABLE.add(Batch)


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

# One tag byte per value.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_TUPLE = 0x07
_T_SET = 0x08
_T_FROZENSET = 0x09
_T_DICT = 0x0A
_T_DATACLASS = 0x0B
_T_COLUMNS = 0x0C

#: the fewest rows a run of one registered dataclass needs to be written
#: as a column block instead of row by row. Measured, not a knob: below
#: it the block's per-column headers cost more than its bulk calls save
#: (DESIGN.md, "Wire format", has the table).
COLUMN_CROSSOVER = 10

# Column kinds, one byte at the head of every column in a block.
_C_ANY = 0x00  # the n values as one row-encoded list
_C_STR = 0x01  # distinct-value table + index column
_C_INT = 0x02  # one int column
_C_TUPLE = 0x03  # lengths column + one column of the flattened items
_C_DATACLASS = 0x04  # varint type id + one column per field

#: int column widths: the struct format character leads the column and
#: says how many little-endian bytes each value takes.
_INT_WIDTHS = {ord(code): struct.calcsize("<" + code) for code in "bBhHiIqQ"}
_UNSIGNED = ((1 << 8, "B"), (1 << 16, "H"), (1 << 32, "I"), (1 << 64, "Q"))
_SIGNED = ((1 << 7, "b"), (1 << 15, "h"), (1 << 31, "i"), (1 << 63, "q"))

_PACK_FLOAT = struct.Struct("!d").pack
_UNPACK_FLOAT = struct.Struct("!d").unpack_from

#: decode-side intern table for short wire strings (bytes -> str).
_STR_CACHE: dict[bytes, str] = {}

#: interned wire tables, rebuilt if the registry grows:
#: (registry_size, types_by_id, type -> id, field-name tuples by id,
#:  fast constructors by id).
_TABLES: (
    tuple[int, list[type], dict[type, int], list[tuple[str, ...]], list[Callable]]
    | None
) = None


def _dataclass_builder(cls: type, names: tuple[str, ...]) -> Callable[[list], Any]:
    """A fast ``decoded field list -> instance`` constructor for ``cls``.

    ``slots=True, frozen=True`` dataclasses pay one ``object.__setattr__``
    per field inside ``__init__``; binding the slot descriptors' ``__set__``
    on a bare ``object.__new__`` instance skips the ``__init__`` frame and
    the per-field attribute-name lookup. Classes with a ``__post_init__``
    (or without slot descriptors for every field) keep the plain
    constructor, which runs whatever logic ``__init__`` carries.
    """
    if getattr(cls, "__post_init__", None) is not None:
        return lambda items: cls(*items)
    setters = []
    for name in names:
        descriptor = getattr(cls, name, None)
        if not hasattr(descriptor, "__set__"):
            return lambda items: cls(*items)
        setters.append(descriptor.__set__)
    # exec-specialize for the arity: no per-field loop at build time.
    env = {"_new": object.__new__, "_cls": cls}
    env.update({f"_s{i}": s for i, s in enumerate(setters)})
    body = "".join(f" _s{i}(o, items[{i}])\n" for i in range(len(setters)))
    code = f"def build(items):\n o = _new(_cls)\n{body} return o\n"
    exec(code, env)  # noqa: S102 - compile-time codegen over trusted input
    return env["build"]


def wire_tables() -> tuple[
    int, list[type], dict[type, int], list[tuple[str, ...]], list[Callable]
]:
    """The interned type/field tables the binary format encodes against.

    Derived deterministically from the registry (type ids are positions in
    the sorted wire-name list; field tables are dataclass declaration
    order), so two processes agree on the tables iff they registered the
    same protocol — which every ``repro`` process does at bootstrap.
    """
    global _TABLES, _CACHEABLE_TIDS
    _bootstrap()
    if _TABLES is None or _TABLES[0] != len(_REGISTRY):
        types = [_REGISTRY[name] for name in sorted(_REGISTRY)]
        ids = {cls: i for i, cls in enumerate(types)}
        field_table = [tuple(f.name for f in fields(cls)) for cls in types]
        builders = [
            _dataclass_builder(cls, names)
            for cls, names in zip(types, field_table)
        ]
        _TABLES = (len(_REGISTRY), types, ids, field_table, builders)
        _CACHEABLE_TIDS = frozenset(
            ids[cls] for cls in _CACHEABLE if cls in ids
        )
        _PAYLOAD_MEMO.clear()
    return _TABLES


def _write_varint(out: bytearray, n: int) -> None:
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    b = buf[pos]
    pos += 1
    if b < 0x80:
        return b, pos
    result = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7


def _int_code(lo: int, hi: int) -> str | None:
    """The narrowest int column width holding ``[lo, hi]`` (None past 64 bits)."""
    if lo >= 0 and hi < 0x100:  # the common case: one byte
        return "B"
    if lo >= 0:
        for limit, code in _UNSIGNED:
            if hi < limit:
                return code
    else:
        for limit, code in _SIGNED:
            if -limit <= lo and hi < limit:
                return code
    return None


def _write_ints(out: bytearray, values: Any, code: str | None = None) -> None:
    """An int column; ``code`` defaults to the width of a non-negative one
    (the lengths and indexes a column carries)."""
    if code is None:
        code = _int_code(0, max(values))
    out.append(ord(code))
    if code == "B":
        out += bytes(values)
    else:
        out += struct.pack(f"<{len(values)}{code}", *values)


#: one getter per field table: a row -> its field values (one field: the value).
_getter = functools.cache(lambda names: attrgetter(*names))


def _write_rows(
    out: bytearray,
    rows: Any,
    tid: int,
    ids: dict[type, int],
    field_table: list[tuple[str, ...]],
) -> None:
    """The columns of a run of one registered dataclass, one per field."""
    names = field_table[tid]
    if len(names) == 1:
        columns: Any = (list(map(_getter(names), rows)),)
    else:
        columns = zip(*map(_getter(names), rows))
    for column in columns:
        _write_column(out, column, ids, field_table)


def _write_column(
    out: bytearray,
    column: Any,
    ids: dict[type, int],
    field_table: list[tuple[str, ...]],
) -> None:
    """One column of a block: its kind byte, then the kind's encoding.

    The kind follows from the values' types alone, with builtin subclasses
    taken as their base type as the row encoding takes them, so a decoded
    column re-encodes to the same bytes.
    """
    kinds = set(map(type, column))
    only = next(iter(kinds)) if len(kinds) == 1 else None
    tid = ids.get(only)
    if tid is not None:
        cacheable = tid in _CACHEABLE_TIDS
        kind = _C_ANY if cacheable or not field_table[tid] else _C_DATACLASS
    elif only is str:
        kind = _C_STR
    elif only is int:
        kind = _C_INT
    elif only is tuple:
        kind = _C_TUPLE
    elif not column:
        kind = _C_ANY
    elif all(issubclass(k, str) for k in kinds):
        kind = _C_STR
    elif all(issubclass(k, int) and k is not bool for k in kinds):
        kind = _C_INT
    elif all(issubclass(k, tuple) for k in kinds):
        kind = _C_TUPLE
    else:
        kind = _C_ANY
    if kind == _C_INT:
        code = _int_code(min(column), max(column))
        if code is None:
            kind = _C_ANY
    out.append(kind)
    if kind == _C_STR:
        table = list(dict.fromkeys(column))
        text = "".join(table)
        blob = text.encode("utf-8")
        _write_varint(out, len(table))
        # all-ASCII text: character lengths are byte lengths
        _write_ints(out, list(map(len, table if len(blob) == len(text) else
                                  map(str.encode, table))))
        out += blob
        if len(table) == len(column):
            _write_ints(out, range(len(table)))
        elif len(table) == 1:
            _write_ints(out, bytes(len(column)), "B")
        else:
            index = dict(zip(table, range(len(table))))
            _write_ints(out, list(map(index.__getitem__, column)))
    elif kind == _C_INT:
        _write_ints(out, column, code)
    elif kind == _C_TUPLE:
        _write_ints(out, list(map(len, column)))
        _write_column(out, list(chain.from_iterable(column)), ids, field_table)
    elif kind == _C_DATACLASS:
        _write_varint(out, tid)
        _write_rows(out, column, tid, ids, field_table)
    else:
        # one row-encoded list, so the decoder reads it in one pass
        out.append(_T_LIST)
        _write_varint(out, len(column))
        for value in column:
            _bencode(value, out, ids, field_table)


def _bencode(
    value: Any,
    out: bytearray,
    ids: dict[type, int],
    field_table: list[tuple[str, ...]],
) -> None:
    tid = ids.get(type(value))
    if tid is not None:
        if type(value) in _CACHEABLE:
            entry = _PAYLOAD_MEMO.get(type(value))
            if entry is not None and entry[0] is value:
                out += entry[1]
                return
            start = len(out)
            out.append(_T_DATACLASS)
            _write_varint(out, tid)
            for name in field_table[tid]:
                _bencode(getattr(value, name), out, ids, field_table)
            _PAYLOAD_MEMO[type(value)] = (value, bytes(out[start:]))
            return
        out.append(_T_DATACLASS)
        _write_varint(out, tid)
        for name in field_table[tid]:
            _bencode(getattr(value, name), out, ids, field_table)
        return
    t = type(value)
    if t is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif t is int:
        out.append(_T_INT)
        # zigzag keeps negative magnitudes short without fixed width
        _write_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))
    elif t is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif value is None:
        out.append(_T_NONE)
    elif t is float:
        out.append(_T_FLOAT)
        out += _PACK_FLOAT(value)
    elif t is tuple or t is list:
        if len(value) >= COLUMN_CROSSOVER:
            # A long run of one registered dataclass (the commands of a
            # batch, the replies of a ReplyBatch) goes column by column.
            tid = ids.get(type(value[0]))
            if (
                tid is not None
                and tid not in _CACHEABLE_TIDS
                and field_table[tid]
                and len(set(map(type, value))) == 1
            ):
                out.append(_T_COLUMNS)
                out.append(_T_TUPLE if t is tuple else _T_LIST)
                _write_varint(out, len(value))
                out.append(_C_DATACLASS)
                _write_varint(out, tid)
                _write_rows(out, value, tid, ids, field_table)
                return
        out.append(_T_TUPLE if t is tuple else _T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _bencode(item, out, ids, field_table)
    elif t is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _bencode(key, out, ids, field_table)
            _bencode(item, out, ids, field_table)
    elif t is set or t is frozenset:
        out.append(_T_FROZENSET if t is frozenset else _T_SET)
        _write_varint(out, len(value))
        encoded: list[bytes] = []
        for item in value:
            chunk = bytearray()
            _bencode(item, chunk, ids, field_table)
            encoded.append(bytes(chunk))
        encoded.sort()  # deterministic bytes regardless of set iteration order
        for chunk in encoded:
            out += chunk
    elif isinstance(value, (str, bool, int, float, tuple, list, dict, set, frozenset)):
        # subclasses of the builtin value types encode as their base type
        # (NewType aliases are already plain str/int at runtime)
        _bencode(
            str(value) if isinstance(value, str) else
            bool(value) if isinstance(value, bool) else
            int(value) if isinstance(value, int) else
            float(value) if isinstance(value, float) else
            tuple(value) if isinstance(value, tuple) else
            list(value) if isinstance(value, list) else
            dict(value) if isinstance(value, dict) else
            frozenset(value) if isinstance(value, frozenset) else
            set(value),
            out, ids, field_table,
        )
    else:
        raise CodecError(
            f"unencodable payload of type {type(value).__name__}: {value!r}"
        )


def _bdecode(
    buf: bytes,
    start: int,
    types: list[type],
    field_table: list[tuple[str, ...]],
    builders: list[Callable],
) -> tuple[Any, int]:
    """Decode one value at ``start``; returns ``(value, end_offset)``.

    Iterative with an explicit container stack (instead of one Python
    call per value) and hand-inlined varint reads: this is the live
    transport's per-message hot path, and call overhead is the dominant
    cost of a recursive decoder.

    Each frame is ``[kind, need, items, tid]``: a container waiting for
    ``need`` more values. ``kind`` reuses the wire tags. The innermost
    frame lives in the local ``top`` (parents on ``stack``), so the
    per-value feed path indexes no lists.
    """
    pos = start
    n_types = len(types)
    stack: list[list] = []
    top: list | None = None
    while True:
        tag = buf[pos]
        pos += 1
        # -- one value header: scalars complete immediately, containers
        #    push a frame and loop back for their elements.
        if tag == _T_DATACLASS:
            node_start = pos - 1  # the tag byte, for the decode-side memo
            b = buf[pos]
            pos += 1
            if b < 0x80:
                tid = b
            else:
                tid = b & 0x7F
                shift = 7
                while b >= 0x80:
                    b = buf[pos]
                    pos += 1
                    tid |= (b & 0x7F) << shift
                    shift += 7
            if tid >= n_types:
                raise CodecError(f"unknown binary type id {tid}")
            need = len(field_table[tid])
            if need:
                if top is not None:
                    stack.append(top)
                top = [_T_DATACLASS, need, [], tid, node_start]
                continue
            value = builders[tid]([])
        elif tag == _T_INT:
            b = buf[pos]
            pos += 1
            if b < 0x80:
                u = b
            else:
                u = b & 0x7F
                shift = 7
                while b >= 0x80:
                    b = buf[pos]
                    pos += 1
                    u |= (b & 0x7F) << shift
                    shift += 7
            value = (u >> 1) if not (u & 1) else -((u + 1) >> 1)
        elif tag == _T_STR:
            b = buf[pos]
            pos += 1
            if b < 0x80:
                n = b
            else:
                n = b & 0x7F
                shift = 7
                while b >= 0x80:
                    b = buf[pos]
                    pos += 1
                    n |= (b & 0x7F) << shift
                    shift += 7
            raw = buf[pos : pos + n]
            pos += n
            # Short strings repeat constantly on the wire (node ids, op
            # names, keys): intern them so steady-state decode skips the
            # utf-8 codec. Bounded; full reset beats LRU bookkeeping.
            value = _STR_CACHE.get(raw)
            if value is None:
                value = raw.decode("utf-8")
                if n <= 32:
                    if len(_STR_CACHE) >= 8192:
                        _STR_CACHE.clear()
                    _STR_CACHE[raw] = value
        elif tag == _T_NONE:
            value = None
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_FLOAT:
            value = _UNPACK_FLOAT(buf, pos)[0]
            pos += 8
        elif tag <= _T_DICT:  # LIST / TUPLE / SET / FROZENSET / DICT
            n = buf[pos]
            pos += 1
            if n >= 0x80:
                b = n
                n = b & 0x7F
                shift = 7
                while b >= 0x80:
                    b = buf[pos]
                    pos += 1
                    n |= (b & 0x7F) << shift
                    shift += 7
            if tag == _T_DICT:
                n *= 2  # a dict needs key and value per entry
            if n:
                if top is not None:
                    stack.append(top)
                top = [tag, n, [], 0]
                continue
            value = (
                [] if tag == _T_LIST
                else () if tag == _T_TUPLE
                else set() if tag == _T_SET
                else frozenset() if tag == _T_FROZENSET
                else {}
            )
        elif tag == _T_COLUMNS:
            value, pos = _read_block(buf, pos, types, field_table, builders)
        else:
            raise CodecError(f"unknown binary tag 0x{tag:02x}")
        # -- feed the completed value upward, building any containers it
        #    completes along the way. ``top[1]`` counts down to zero.
        while True:
            if top is None:
                return value, pos
            top[2].append(value)
            top[1] -= 1
            if top[1]:
                break
            kind = top[0]
            items = top[2]
            if kind == _T_DATACLASS:
                tid = top[3]
                value = builders[tid](items)
                if tid in _CACHEABLE_TIDS:
                    # A decoded batch is about to be re-encoded into this
                    # replica's WAL records; remember its source bytes so
                    # those encodes become splices.
                    _PAYLOAD_MEMO[types[tid]] = (
                        value, bytes(buf[top[4] : pos])
                    )
            elif kind == _T_LIST:
                value = items
            elif kind == _T_TUPLE:
                value = tuple(items)
            elif kind == _T_SET:
                value = set(items)
            elif kind == _T_FROZENSET:
                value = frozenset(items)
            else:  # _T_DICT: flat [k1, v1, k2, v2, ...] in insertion order
                it = iter(items)
                value = dict(zip(it, it))
            top = stack.pop() if stack else None


def _read_ints(buf: bytes, pos: int, n: int) -> tuple[Any, int]:
    """An int column of ``n`` values (one-byte values stay a bytes slice)."""
    code = buf[pos]
    if code == 0x42:  # "B"
        end = pos + 1 + n
        if end > len(buf):
            raise CodecError("int column overruns its frame")
        return buf[pos + 1 : end], end
    width = _INT_WIDTHS.get(code)
    if width is None:
        raise CodecError(f"unknown int column width 0x{code:02x}")
    values = struct.unpack_from(f"<{n}{chr(code)}", buf, pos + 1)
    return values, pos + 1 + n * width


def _read_strings(raws: list[bytes]) -> list[str]:
    """Decode a distinct-value table through the row decoder's intern
    table, so repeated short strings share one object across frames."""
    cache = _STR_CACHE
    strings = list(map(cache.get, raws))
    if None in strings:
        for i, raw in enumerate(raws):
            if strings[i] is None:
                value = strings[i] = raw.decode("utf-8")
                if len(raw) <= 32:
                    if len(cache) >= 8192:
                        cache.clear()
                    cache[raw] = value
    return strings


def _read_block(
    buf: bytes,
    pos: int,
    types: list[type],
    field_table: list[tuple[str, ...]],
    builders: list[Callable],
) -> tuple[Any, int]:
    """A column block after its tag: container, row count, the rows' columns."""
    container = buf[pos]
    n, pos = _read_varint(buf, pos + 1)
    if container != _T_TUPLE and container != _T_LIST:
        raise CodecError(f"column block in unknown container 0x{container:02x}")
    if n < COLUMN_CROSSOVER:
        raise CodecError(f"column block of {n} rows is below the crossover")
    if buf[pos] != _C_DATACLASS:
        raise CodecError("column block rows are not a registered dataclass")
    tid, pos = _read_varint(buf, pos + 1)
    rows, pos = _read_rows(buf, pos, n, tid, types, field_table, builders)
    return (tuple(rows) if container == _T_TUPLE else rows), pos


def _read_rows(
    buf: bytes,
    pos: int,
    n: int,
    tid: int,
    types: list[type],
    field_table: list[tuple[str, ...]],
    builders: list[Callable],
) -> tuple[list, int]:
    """``n`` rows of type ``tid``: one column per field, then the rows."""
    if tid >= len(types) or tid in _CACHEABLE_TIDS or not field_table[tid]:
        raise CodecError(f"type id {tid} cannot head a column")
    columns = []
    for _ in field_table[tid]:
        column, pos = _read_column(buf, pos, n, types, field_table, builders)
        columns.append(column)
    return list(map(builders[tid], zip(*columns))), pos


def _read_column(
    buf: bytes,
    pos: int,
    n: int,
    types: list[type],
    field_table: list[tuple[str, ...]],
    builders: list[Callable],
) -> tuple[Any, int]:
    """``n`` values of one column; a list or tuple, built by bulk calls."""
    # Every kind spends at least a byte per value, so a count past the
    # bytes left is malformed before anything is allocated for it.
    if n > len(buf) - pos:
        raise CodecError(f"column of {n} values overruns its frame")
    kind = buf[pos]
    pos += 1
    if kind == _C_STR:
        m, pos = _read_varint(buf, pos)
        if not 0 < m <= n:
            raise CodecError(f"string table of {m} values for {n} rows")
        lengths, pos = _read_ints(buf, pos, m)
        if min(lengths) < 0:
            raise CodecError("negative string length")
        offsets = list(accumulate(lengths, initial=pos))
        pos = offsets[-1]
        if pos > len(buf):
            raise CodecError("string table overruns its frame")
        table = _read_strings(
            list(map(buf.__getitem__, map(slice, offsets, offsets[1:])))
        )
        index, pos = _read_ints(buf, pos, n)
        if min(index) < 0 or max(index) >= m:
            raise CodecError("string index outside its table")
        return list(map(table.__getitem__, index)), pos
    if kind == _C_INT:
        return _read_ints(buf, pos, n)
    if kind == _C_TUPLE:
        lengths, pos = _read_ints(buf, pos, n)
        if n and min(lengths) < 0:
            raise CodecError("negative tuple length")
        items, pos = _read_column(
            buf, pos, sum(lengths), types, field_table, builders
        )
        offsets = list(accumulate(lengths, initial=0))
        slices = map(slice, offsets, offsets[1:])
        return list(map(tuple, map(items.__getitem__, slices))), pos
    if kind == _C_DATACLASS:
        tid, pos = _read_varint(buf, pos)
        return _read_rows(buf, pos, n, tid, types, field_table, builders)
    if kind == _C_ANY:
        column, pos = _bdecode(buf, pos, types, field_table, builders)
        if type(column) is not list or len(column) != n:
            raise CodecError(f"any-value column is not a list of {n} values")
        return column, pos
    raise CodecError(f"unknown column kind 0x{kind:02x}")


# ---------------------------------------------------------------------------
# Payload and frame APIs
# ---------------------------------------------------------------------------


#: what decoding raises on bytes that are not a well-formed encoding:
#: truncation, bad struct / utf-8 data, wrong field arity, and a registered
#: type's own ``__post_init__`` rejecting its decoded fields. All of it
#: surfaces as :class:`CodecError` so the transport can drop the frame.
_MALFORMED = (IndexError, struct.error, ValueError, TypeError, ReproError)


def encode_payload(payload: Any) -> bytes:
    """Encode one payload to canonical bytes (no frame header)."""
    _, _, ids, field_table, _ = wire_tables()
    out = bytearray()
    _bencode(payload, out, ids, field_table)
    return bytes(out)


def decode_payload(data: bytes) -> Any:
    """Decode one payload (the inverse of :func:`encode_payload`)."""
    _, types, _, field_table, builders = wire_tables()
    if not data:
        raise CodecError("empty payload")
    try:
        value, end = _bdecode(data, 0, types, field_table, builders)
    except _MALFORMED as exc:
        raise CodecError(f"malformed payload: {exc}") from exc
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after payload")
    return value


def encode_frame(sender: NodeId, dest: NodeId, payload: Any) -> bytes:
    """One wire frame: 4-byte big-endian length + envelope body."""
    _, _, ids, field_table, _ = wire_tables()
    out = bytearray(4)  # length prefix patched in below
    out.append(BINARY_MAGIC)
    for node in (sender, dest):
        raw = str(node).encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
    _bencode(payload, out, ids, field_table)
    body_len = len(out) - 4
    if body_len > MAX_FRAME_BYTES:
        raise CodecError(f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES")
    out[0:4] = body_len.to_bytes(4, "big")
    return bytes(out)


def encode_frame_precoded(
    sender: NodeId, dest: NodeId, payload_bytes: bytes
) -> bytes:
    """Frame an already-encoded payload (from :func:`encode_payload`).

    Broadcast fast path: a payload fanned out to N destinations is
    encoded once and framed N times, skipping the recursive encode for
    all but the first copy. Byte-identical to :func:`encode_frame` for
    the same payload (pinned by a codec test).
    """
    out = bytearray(4)  # length prefix patched in below
    out.append(BINARY_MAGIC)
    for node in (sender, dest):
        raw = str(node).encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
    out += payload_bytes
    body_len = len(out) - 4
    if body_len > MAX_FRAME_BYTES:
        raise CodecError(f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES")
    out[0:4] = body_len.to_bytes(4, "big")
    return bytes(out)


def decode_frame_body(body: bytes) -> tuple[NodeId, NodeId, Any]:
    """Decode a frame body (the bytes after the length prefix)."""
    _, types, _, field_table, builders = wire_tables()
    if not body or body[0] != BINARY_MAGIC:
        raise CodecError("frame body does not start with the magic byte")
    try:
        pos = 1
        n, pos = _read_varint(body, pos)
        sender = body[pos : pos + n].decode("utf-8")
        pos += n
        n, pos = _read_varint(body, pos)
        dest = body[pos : pos + n].decode("utf-8")
        pos += n
        payload, end = _bdecode(body, pos, types, field_table, builders)
    except _MALFORMED as exc:
        raise CodecError(f"malformed frame: {exc}") from exc
    if end != len(body):
        raise CodecError(f"{len(body) - end} trailing bytes after frame")
    return NodeId(sender), NodeId(dest), payload


def frame_length(header: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    return length


@functools.cache
def frame_overhead() -> int:
    """Per-frame overhead, measured not guessed.

    Computed from an actual encoded envelope (length prefix + magic +
    sender/dest ids of a typical ``n1`` -> ``n2`` frame), so size
    accounting follows the codec instead of a hardcoded constant.
    """
    frame = encode_frame(NodeId("n1"), NodeId("n2"), None)
    return len(frame) - len(encode_payload(None))


def wire_size(payload: Any) -> int:
    """Exact bytes this payload would occupy on the wire, frame included."""
    return frame_overhead() + len(encode_payload(payload))


def estimate_size(payload: Any, fallback: int = DEFAULT_ESTIMATE) -> int:
    """Best-effort :func:`wire_size`; ``fallback`` for unencodable payloads.

    This is the estimator :class:`repro.sim.network.Network` applies when a
    send does not specify an explicit (modelled) size.
    """
    try:
        return wire_size(payload)
    except (CodecError, TypeError, ValueError):
        return fallback


def payload_shape(payload: Any, depth: int = 3) -> Any:
    """A cheap hashable key describing a payload's size-relevant shape.

    Two payloads with the same shape encode to (nearly) the same number of
    bytes: strings are keyed by length, ints by bit length (a varint-size
    proxy), containers and registered dataclasses by their element shapes
    down to ``depth`` levels (deeper values collapse to a type+length
    summary). The simulator memoizes :func:`estimate_size` by this key so
    repeated sends of same-shaped payloads skip the full encode. For runs
    long enough to be column blocks (batches) the key is an estimate: a
    string column stores each distinct value once, so two batches of the
    same shape encode to different sizes when they repeat different
    numbers of values, and the memo returns the first one's size.

    Returns ``None`` for payloads the codec cannot encode (the caller
    should skip the cache and fall back directly).
    """
    t = type(payload)
    if payload is None or t is bool:
        return payload
    if t is int:
        return ("i", payload.bit_length())
    if t is float:
        return ("f",)
    if t is str:
        return ("s", len(payload))
    if depth <= 0:
        try:
            return ("?", t.__name__, len(payload))  # type: ignore[arg-type]
        except TypeError:
            return ("?", t.__name__, 0)
    _, _, ids, field_table, _ = wire_tables()
    tid = ids.get(t)
    if tid is not None:
        return (
            tid,
            tuple(
                payload_shape(getattr(payload, name), depth - 1)
                for name in field_table[tid]
            ),
        )
    if t is tuple or t is list or t is set or t is frozenset:
        return (
            t.__name__,
            tuple(payload_shape(item, depth - 1) for item in payload),
        )
    if t is dict:
        return (
            "m",
            tuple(
                (payload_shape(k, depth - 1), payload_shape(v, depth - 1))
                for k, v in payload.items()
            ),
        )
    return None


__all__ = [
    "BINARY_MAGIC",
    "CodecError",
    "DEFAULT_ESTIMATE",
    "MAX_FRAME_BYTES",
    "decode_frame_body",
    "decode_payload",
    "encode_frame",
    "encode_frame_precoded",
    "encode_payload",
    "estimate_size",
    "frame_length",
    "frame_overhead",
    "payload_shape",
    "register",
    "registered_names",
    "registered_type",
    "wire_size",
]
