"""Parser for Paraver ``.prv`` traces (the subset our writer emits).

Reads state, event and communication records back as int64 columns,
used by reconstruction, the round-trip tests and the analysis helpers
when working from files rather than live
:class:`~repro.profiling.recorder.RunTrace` objects.

The reader works on fixed-size byte blocks (:data:`BLOCK_BYTES`), each
cut at its last newline, so its working memory is bounded by the block
size whatever the trace size.  Per block it

* ends lines at LF, CR LF or a lone CR (as universal newlines do),
* drops ``#``, ``c:`` and blank lines with a byte mask,
* counts each line's fields with ``np.add.reduceat`` over the ``:`` mask,
* parses every integer of the block in one ``np.fromstring`` call, and
* gathers the fields into a :class:`PrvBlock` of columns, expanding
  multi-pair event lines into one row per ``type:value`` pair.

Validation is vectorized too.  Any non-integer field, an unknown record
kind, a state record without exactly 8 fields, an unknown state id, a
state that ends before it begins, an event record without a
``type:value`` pair or with an odd ``type:value`` list, and a
communication record without exactly 15 fields all raise
:class:`ParaverParseError` naming ``path:line`` of the first offending
line.

Two entry points:

* :func:`stream_prv` yields the header, then one :class:`PrvBlock` per
  block — constant memory, for consumers (reconstruction) that fold
  records as they arrive;
* :func:`parse_prv` collects the blocks into a :class:`ParsedTrace` for
  callers that want the whole trace in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from ..profiling.config import ThreadState
from ..profiling.recorder import state_totals

__all__ = ["ParsedState", "ParsedEvent", "ParsedComm", "ParsedTrace",
           "PrvBlock", "PrvHeader", "parse_prv", "stream_prv"]

#: bytes read per block.  A block's columns take a few times its size,
#: so this bounds the reader's memory; larger blocks buy little speed.
BLOCK_BYTES = 64 * 1024

#: record kinds (the first field of a record line)
STATE, EVENT, COMM = 1, 2, 3
#: fields of a state and of a communication record; an event record has
#: 6 plus two per type:value pair
_STATE_FIELDS, _COMM_FIELDS, _EVENT_HEAD = 8, 15, 6

_STATE_VALUES = np.array(sorted(int(state) for state in ThreadState))
_NL, _HASH, _COLON, _C = (ord(c) for c in "\n#:c")
#: whitespace a field may carry around its digits (not the newline)
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[ord(c) for c in " \t\x0b\x0c"]] = True


@dataclass(frozen=True)
class ParsedState:
    cpu: int
    task: int
    begin: int
    end: int
    state: int


@dataclass(frozen=True)
class ParsedEvent:
    cpu: int
    task: int
    time: int
    type: int
    value: int


@dataclass(frozen=True)
class ParsedComm:
    src_task: int
    dst_task: int
    logical_send: int
    physical_send: int
    logical_recv: int
    physical_recv: int
    size: int
    tag: int


@dataclass(frozen=True)
class PrvBlock:
    """Records of a stretch of a ``.prv`` file, as int64 columns.

    One row per state record, per ``type:value`` pair of an event
    record and per communication record, in file order.  ``time`` is a
    state's begin, an event's time or a communication's logical send;
    ``end`` is a state's end (``time`` for the other kinds); ``type`` is
    an event's type (0 otherwise); ``value`` is a state's id or an
    event's value (0 for a communication).  ``comm_fields`` holds the
    15 fields of each communication record.
    """

    kind: np.ndarray
    cpu: np.ndarray
    task: np.ndarray
    time: np.ndarray
    end: np.ndarray
    type: np.ndarray
    value: np.ndarray
    comm_fields: np.ndarray

    @classmethod
    def concat(cls, blocks: list["PrvBlock"]) -> "PrvBlock":
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            empty = np.zeros(0, dtype=np.int64)
            return cls(*([empty] * 7),
                       np.zeros((0, _COMM_FIELDS), dtype=np.int64))
        return cls(*(np.concatenate([getattr(block, name)
                                     for block in blocks])
                     for name in cls.__dataclass_fields__))


@dataclass
class ParsedTrace:
    end_time: int
    num_tasks: int
    #: every record of the file, as one block of columns
    records: PrvBlock = field(default_factory=lambda: PrvBlock.concat([]))

    def _rows(self, kind: int, *columns: str) -> list[list[int]]:
        mask = self.records.kind == kind
        return [getattr(self.records, name)[mask].tolist()
                for name in columns]

    @property
    def states(self) -> list[ParsedState]:
        return list(map(ParsedState, *self._rows(
            STATE, "cpu", "task", "time", "end", "value")))

    @property
    def events(self) -> list[ParsedEvent]:
        return list(map(ParsedEvent, *self._rows(
            EVENT, "cpu", "task", "time", "type", "value")))

    @property
    def comms(self) -> list[ParsedComm]:
        # src task, dst task, logical/physical send, logical/physical
        # receive, size, tag
        columns = self.records.comm_fields[:, [3, 9, 5, 6, 11, 12, 13, 14]]
        return [ParsedComm(*row) for row in columns.tolist()]

    def events_of_type(self, type_id: int) -> list[ParsedEvent]:
        return [e for e in self.events if e.type == type_id]

    def state_durations(self) -> dict[int, int]:
        """Total cycles per state id, for the ids the file holds."""

        rows = self.records.kind == STATE
        state = self.records.value[rows]
        totals = state_totals(state, self.records.end[rows]
                              - self.records.time[rows])
        return {s: int(totals[s]) for s in np.unique(state).tolist()}


class ParaverParseError(Exception):
    """Malformed .prv content."""


@dataclass(frozen=True)
class PrvHeader:
    """The ``#Paraver`` header line, yielded first by :func:`stream_prv`."""

    end_time: int
    num_tasks: int


def stream_prv(path: str) -> Iterator[Union[PrvHeader, PrvBlock]]:
    """Stream a ``.prv`` file block by block.

    Yields the :class:`PrvHeader` first, then one :class:`PrvBlock` per
    :data:`BLOCK_BYTES` of input that holds any record.  Nothing is
    buffered beyond the current block (and a line longer than a block),
    so multi-GB traces stream in constant memory.
    """

    with open(path, "rb") as handle:
        # a lone "\r" ends a line too (universal newlines), even the header
        header, _, tail = handle.readline().partition(b"\r")
        if not header.startswith(b"#Paraver"):
            raise ParaverParseError(f"{path}: missing #Paraver header")
        yield PrvHeader(*_parse_header(
            header.decode("utf-8", "replace").rstrip("\n")))
        if tail == b"\n":
            tail = b""
        line_no = 2
        while True:
            data = handle.read(BLOCK_BYTES)
            if not data:
                break
            data = tail + data
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            if cut:
                text = _newlines(data[:cut])
                block = _parse_block(path, line_no, text)
                line_no += text.count(b"\n")
                if block is not None:
                    yield block
        if tail:
            block = _parse_block(path, line_no, _newlines(tail + b"\n"))
            if block is not None:
                yield block


def _newlines(data: bytes) -> bytes:
    """``data`` with each CR LF pair and each lone CR turned into LF."""

    if b"\r" not in data:
        return data
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def parse_prv(path: str) -> ParsedTrace:
    """Parse a ``.prv`` file written by :mod:`repro.paraver.format`."""

    records = stream_prv(path)
    header = next(records)
    return ParsedTrace(header.end_time, header.num_tasks,
                       PrvBlock.concat(list(records)))


def _parse_block(path: str, line_no: int,
                 data: bytes) -> Optional[PrvBlock]:
    """Columns of the record lines in ``data`` (whole lines, the first
    being line ``line_no`` of ``path``); ``None`` when it has none."""

    text = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(text == _NL)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lead = starts
    if _SPACE[text[starts]].any():
        # some line starts with whitespace: look at its first other byte
        solid = np.flatnonzero(~_SPACE[text])
        lead = solid[np.searchsorted(solid, starts)]
    first = text[lead]
    second = text[np.minimum(lead + 1, text.size - 1)]
    keep = ((first != _NL) & (first != _HASH)
            & ~((first == _C) & (second == _COLON)))
    lines = np.flatnonzero(keep)
    if not lines.size:
        return None
    nfields = np.add.reduceat(text == _COLON, starts,
                              dtype=np.int64)[lines] + 1
    if lines.size < starts.size:
        text = text[np.repeat(keep, ends - starts + 1)]
    values = _integers(text, nfields)
    if values is None:
        # find the first line whose fields do not parse: every prefix of
        # the lines before it parses, no prefix through it does
        cut = np.concatenate(([0], np.cumsum((ends - starts + 1)[lines])))
        good, bad = 0, lines.size
        while bad - good > 1:
            mid = (good + bad) // 2
            if _integers(text[:cut[mid]], nfields[:mid]) is None:
                bad = mid
            else:
                good = mid
        if good:
            # an error on an earlier line is reported first
            _columns(path, line_no, lines[:good], nfields[:good],
                     _integers(text[:cut[good]], nfields[:good]))
        raise ParaverParseError(
            f"{path}:{line_no + lines[good]}: field is not an integer")
    return _columns(path, line_no, lines, nfields, values)


def _integers(text: np.ndarray, nfields: np.ndarray) -> Optional[np.ndarray]:
    """All fields of the record lines ``text`` as one int64 array, or
    ``None`` unless every field is one optionally signed integer."""

    raw = text.tobytes()
    try:
        values = np.fromstring(raw.replace(b"\n", b":"), dtype=np.int64,
                               sep=":")
    except (ValueError, DeprecationWarning):
        # numpy >= 2 raises on a field it cannot read; older numpy warns
        # and stops early, which the count check below catches
        return None
    digit = (text - np.uint8(ord("0"))) < 10
    # each field holds exactly one run of digits (fromstring reads a
    # blank field as 0) and a sign is followed by a digit
    runs = np.count_nonzero(digit[1:] & ~digit[:-1]) + int(digit[0])
    if values.size != nfields.sum() or runs != values.size:
        return None
    if b"-" in raw or b"+" in raw:
        signs = np.flatnonzero((text == ord("-")) | (text == ord("+")))
        if not digit[np.minimum(signs + 1, text.size - 1)].all():
            return None
    limits = np.iinfo(np.int64)
    if values.size and (values.max() == limits.max
                        or values.min() == limits.min):
        return None  # out of range: fromstring saturates
    return values


def _columns(path: str, line_no: int, lines: np.ndarray,
             nfields: np.ndarray, values: np.ndarray) -> PrvBlock:
    """Validate the record lines and gather their fields into columns."""

    first = np.cumsum(nfields) - nfields  # index of each line's kind
    last = values.size - 1
    kind = values[first]
    state, event, comm = kind == STATE, kind == EVENT, kind == COMM
    begin = values[np.minimum(first + 5, last)]
    end = values[np.minimum(first + 6, last)]
    state_id = values[np.minimum(first + 7, last)]
    full_state = state & (nfields == _STATE_FIELDS)
    problems = (
        (~(state | event | comm), "unknown record type {kind}"),
        (state & ~full_state,
         "state record has {nfields} fields, expected 8"),
        (full_state & (end < begin),
         "state record ends before it begins ({end} < {begin})"),
        (full_state & ~np.isin(state_id, _STATE_VALUES),
         "unknown state id {state_id}"),
        (event & (nfields <= _EVENT_HEAD),
         "event record has no type:value pair"),
        (event & (nfields > _EVENT_HEAD) & (nfields % 2 == 1),
         "odd type:value list"),
        (comm & (nfields != _COMM_FIELDS),
         "communication record has {nfields} fields, expected 15"),
    )
    bad = np.zeros_like(state)
    for mask, _ in problems:
        bad |= mask
    if bad.any():
        row = int(np.argmax(bad))
        message = next(text for mask, text in problems if mask[row])
        raise ParaverParseError(f"{path}:{line_no + lines[row]}: " +
                                message.format(
                                    kind=kind[row], nfields=nfields[row],
                                    state_id=state_id[row], end=end[row],
                                    begin=begin[row]))

    # one row per state, per event type:value pair, per communication
    rows = np.where(event, (nfields - _EVENT_HEAD) // 2, 1)
    if (rows == 1).all():
        base, pair = first, 0
        row_kind = kind
    else:
        base = np.repeat(first, rows)
        row_start = np.cumsum(rows) - rows
        pair = 2 * (np.arange(base.size) - np.repeat(row_start, rows))
        row_kind = np.repeat(kind, rows)
    time = values[base + 5]
    field6 = values[base + 6 + pair]
    field7 = values[base + 7 + pair]
    return PrvBlock(
        kind=row_kind, cpu=values[base + 1], task=values[base + 3],
        time=time,
        end=np.where(row_kind == STATE, field6, time),
        type=np.where(row_kind == EVENT, field6, 0),
        value=np.where(row_kind == COMM, 0, field7),
        comm_fields=values[first[comm][:, None] + np.arange(_COMM_FIELDS)])


def _parse_header(header: str) -> tuple[int, int]:
    # "#Paraver (date):endtime:nodes(cpus):napps:ntasks(...)"
    try:
        after = header.split("):", 1)[1]
        parts = after.split(":")
        end_time = int(parts[0])
        ntasks = int(parts[3].split("(")[0])
        return end_time, ntasks
    except (IndexError, ValueError) as exc:
        raise ParaverParseError(f"malformed header: {header!r}") from exc
