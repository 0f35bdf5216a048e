"""Parser for Paraver ``.prv`` traces (the subset our writer emits).

Reads state and event records back as int64 columns, used by
reconstruction, the round-trip tests and the analysis helpers when
working from files rather than live
:class:`~repro.profiling.recorder.RunTrace` objects.  Communication
records (type 3), which the simulator never writes, are validated and
kept as rows of kind 3 at their logical send time, so traces from
other tools still load.

The reader works on fixed-size byte blocks (:data:`BLOCK_BYTES`), each
cut at its last newline, so its working memory is bounded by the block
size whatever the trace size.  Per block it

* ends lines at LF, CR LF or a lone CR (as universal newlines do),
* drops ``#``, ``c:`` and blank lines with a byte mask,
* counts each line's fields with ``np.add.reduceat`` over the ``:`` mask,
* parses every integer of the block in one ``np.fromstring`` call, and
* gathers the fields into a :class:`PrvBlock` of columns, expanding
  multi-pair event lines into one row per ``type:value`` pair.

Cost model: parsing a block and folding it into a trace
(:mod:`repro.paraver.reconstruct`) each cost a fixed number of array
operations (a few dozen) over arrays the size of the block, of its
lines or of its rows, whatever its number of threads and event types,
plus one ``np.fromstring`` call, which parses ~130 MB/s and takes
about 40% of the reader's time.  Small blocks pay the per-call
overhead; large blocks pay in memory, since the block's bytes, its
integers and its columns come to 10-16 bytes of peak RSS per input
byte.  Best of 21 passes over the five DIM=64 GEMM traces of
perfbench's ``trace_analysis`` (``benchmarks/reader_block_sweep.py``,
CPU time, 2-CPU host, two runs):

=======  ==========  ==========  ======================
block    5 reports   naive read  peak RSS above imports
=======  ==========  ==========  ======================
32 KiB   100-101 ms  63-65 MB/s  4.5-4.6 MB
64 KiB   83-87 ms    76-79 MB/s  4.2 MB
128 KiB  76-77 ms    89 MB/s     3.9 MB
256 KiB  71-73 ms    96-97 MB/s  4.6 MB
512 KiB  70-103 ms   68-99 MB/s  7.5 MB
1 MiB    77-80 ms    91-94 MB/s  15.7 MB
=======  ==========  ==========  ======================

so :data:`BLOCK_BYTES` is 256 KiB: as fast as any larger block, and
within a block's worth of memory of the smallest.

Validation is vectorized too, and a valid block passes one combined
check; only a block that fails it is searched for its first problem.
Any non-integer field, an unknown record kind, a state record without
exactly 8 fields, an unknown state id, a state that ends before it
begins, an event record without a ``type:value`` pair or with an odd
``type:value`` list, and a communication record without exactly 15
fields all raise
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

from .. import telemetry
from ..profiling.config import ThreadState
from ..profiling.recorder import state_totals

__all__ = ["ParsedState", "ParsedEvent", "ParsedTrace",
           "PrvBlock", "PrvHeader", "parse_prv", "stream_prv"]

#: bytes read per block; bounds the reader's memory at 10-16 bytes per
#: byte of block (the sweep in the module docstring chose it)
BLOCK_BYTES = 256 * 1024

#: record kinds (the first field of a record line)
STATE, EVENT, COMM = 1, 2, 3
#: fields of a state and of a communication record; an event record has
#: 6 plus two per type:value pair
_STATE_FIELDS, _COMM_FIELDS, _EVENT_HEAD = 8, 15, 6

#: state ids are the 2-bit encodings 0 .. _N_STATES - 1
_N_STATES = len(ThreadState)
_INT64_MIN, _INT64_MAX = (int(x) for x in (np.iinfo(np.int64).min,
                                          np.iinfo(np.int64).max))
_NL, _HASH, _COLON, _C, _ZERO = (ord(c) for c in "\n#:c0")
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
class PrvBlock:
    """Records of a stretch of a ``.prv`` file, as int64 columns.

    One row per state record, per ``type:value`` pair of an event
    record and per communication record, in file order.  ``time`` is a
    state's begin, an event's time or a communication's logical send;
    ``end`` is a state's end (``time`` for the other kinds); ``type`` is
    an event's type (0 otherwise); ``value`` is a state's id or an
    event's value (0 for a communication).
    """

    kind: np.ndarray
    cpu: np.ndarray
    task: np.ndarray
    time: np.ndarray
    end: np.ndarray
    type: np.ndarray
    value: np.ndarray

    @classmethod
    def concat(cls, blocks: list["PrvBlock"]) -> "PrvBlock":
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls(*([np.zeros(0, dtype=np.int64)] * 7))
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

    def state_durations(self) -> dict[int, int]:
        """Total cycles per state id, for the ids the file holds."""

        rows = self.records.kind == STATE
        state = self.records.value[rows]
        totals = state_totals(state, self.records.end[rows]
                              - self.records.time[rows])
        return {s: int(totals[s])
                for s in np.flatnonzero(np.bincount(state)).tolist()}


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
        first_line = handle.readline()
        telemetry.add("paraver.read.bytes", len(first_line))
        header, _, tail = first_line.partition(b"\r")
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
            telemetry.add("paraver.read.bytes", len(data))
            data = tail + data
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            if cut:
                # hold one copy of the block's bytes, and no block while
                # the next one is parsed
                text = _newlines(data[:cut])
                del data
                block, lines = _parse_block(path, line_no, text)
                del text
                line_no += lines
                if block is not None:
                    yield block
                    del block
        if tail:
            block, _ = _parse_block(path, line_no, _newlines(tail + b"\n"))
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
                 data: bytes) -> tuple[Optional[PrvBlock], int]:
    """Columns of the record lines in ``data`` (whole lines, the first
    being line ``line_no`` of ``path``), ``None`` when it has none; and
    the number of lines."""

    telemetry.add("paraver.read.blocks")
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
        return None, ends.size
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
    block = _columns(path, line_no, lines, nfields, values)
    telemetry.add("paraver.read.records", block.kind.size)
    return block, ends.size


def _integers(text: np.ndarray, nfields: np.ndarray) -> Optional[np.ndarray]:
    """All fields of the record lines ``text`` as one int64 array, or
    ``None`` unless every field is one optionally signed integer."""

    raw = text.tobytes()
    try:
        values = np.fromstring(raw.replace(b"\n", b":"), dtype=np.int64,
                               sep=":")
    except (ValueError, DeprecationWarning):
        # numpy >= 2 raises on a field it cannot read (an empty one
        # too); older numpy warns and stops early, which the count
        # check below catches
        return None
    if values.size != nfields.sum():
        return None
    if text.max() > _COLON or np.count_nonzero(text < _ZERO) != nfields.size:
        # a byte other than a digit, ":" or a newline: each field must
        # hold exactly one run of digits (fromstring reads a blank field
        # as 0) and a sign must be followed by a digit
        digit = (text - np.uint8(_ZERO)) < 10
        runs = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[0])
        if runs != values.size:
            return None
        signs = np.flatnonzero((text == ord("-")) | (text == ord("+")))
        if not digit[np.minimum(signs + 1, text.size - 1)].all():
            return None
        if values.size and values.min() == _INT64_MIN:
            return None  # out of range: fromstring saturates
    if values.size and values.max() == _INT64_MAX:
        return None
    return values


def _columns(path: str, line_no: int, lines: np.ndarray,
             nfields: np.ndarray, values: np.ndarray) -> PrvBlock:
    """Validate the record lines and gather their fields into columns."""

    first = np.cumsum(nfields)
    first -= nfields  # index of each line's kind
    kind = values[first]
    # every valid record has at least 8 fields; one combined check
    # passes a valid block, and only a failing one is searched for the
    # first problem
    valid = nfields.min() >= _STATE_FIELDS
    if valid:
        begin, end, state_id = (values[first + 5], values[first + 6],
                                values[first + 7])
        ok = ((kind == STATE) & (nfields == _STATE_FIELDS) & (end >= begin)
              & (state_id.view(np.uint64) < _N_STATES))
        ok |= (kind == EVENT) & (nfields % 2 == 0)
        ok |= (kind == COMM) & (nfields == _COMM_FIELDS)
        valid = bool(ok.all())
    if not valid:
        _raise_first_problem(path, line_no, lines, nfields, values, first,
                             kind)

    if nfields.max() > _STATE_FIELDS:
        # one row per state, per event type:value pair, per communication
        rows = np.where(kind == EVENT, (nfields - _EVENT_HEAD) // 2, 1)
        first = np.repeat(first, rows)
        row_start = np.cumsum(rows) - rows
        pair = 2 * (np.arange(first.size) - np.repeat(row_start, rows))
        kind = np.repeat(kind, rows)
        begin = values[first + 5]
        end = values[first + 6 + pair]
        state_id = values[first + 7 + pair]
    # field 6 is a state's end and an event's type, field 7 a state's
    # id and an event's value: fill each column in place
    type_ = np.where(kind == EVENT, end, 0)
    np.copyto(end, begin, where=kind != STATE)
    state_id[kind == COMM] = 0
    return PrvBlock(kind=kind, cpu=values[first + 1],
                    task=values[first + 3], time=begin, end=end, type=type_,
                    value=state_id)


def _raise_first_problem(path: str, line_no: int, lines: np.ndarray,
                         nfields: np.ndarray, values: np.ndarray,
                         first: np.ndarray, kind: np.ndarray) -> None:
    """Raise :class:`ParaverParseError` for the first invalid record."""

    last = values.size - 1
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
        (full_state & (state_id.view(np.uint64) >= _N_STATES),
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
    row = int(np.argmax(bad))
    message = next(text for mask, text in problems if mask[row])
    raise ParaverParseError(f"{path}:{line_no + lines[row]}: " +
                            message.format(
                                kind=kind[row], nfields=nfields[row],
                                state_id=state_id[row], end=end[row],
                                begin=begin[row]))


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
