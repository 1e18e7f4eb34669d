"""Append-only write-ahead log with per-record CRCs and fsync policies.

The :class:`~repro.serve.index.ServingIndex` keeps its durable state as
*checkpoint + log*: the last :func:`repro.core.io.save_graph` checkpoint
plus an append-only log of every maintenance operation applied since.
This module is the log.  Its contract is the classic WAL one:

- **Appends are atomic at the record level.**  Every record is framed
  with a magic number, an explicit 64-bit sequence number, a payload
  length, and a CRC-32 over (sequence, payload).  A crash mid-append
  leaves a *torn tail* — a partial final frame — which the scanner
  detects and drops; every fully-framed record before it is intact.
- **Damage beyond the tail is an error, not a tail.**  A record that
  fails its CRC with further valid-looking frames behind it, a sequence
  number that jumps or moves backwards, or a mangled file header is
  :class:`~repro.errors.WALCorruptionError` — the log did not merely
  lose its last append, it was corrupted, and replaying *around* damage
  could silently reorder history.
- **Truncation is atomic.**  :func:`reset_wal` builds the successor log
  in a temp file and ``os.replace``\\ s it over the old one, so a crash
  mid-checkpoint leaves either the full old log (whose already-applied
  prefix the recovery sequence filter skips) or the fresh empty one.

File format (all integers little-endian)::

    header   "DGWAL1\\n" (7s)  base_seq (u64)  crc32(magic+base_seq) (u32)
    record   0x57414C52 (u32)  seq (u64)  length (u32)
             crc32(seq_bytes + payload) (u32)  payload (length bytes)

``base_seq`` is the sequence number already *applied* by the checkpoint
this log continues from; record sequences are ``base_seq + 1, ...``
strictly consecutive.  Payloads are compact JSON operation dicts (see
:mod:`repro.serve.index`); JSON keeps the log greppable in an incident.

Durability is a policy, not a constant, because fsync is the whole cost
of a durable write (see ``BENCH_serve.json``):

=========  ==========================================================
policy     meaning
=========  ==========================================================
always     fsync after every append — an acked op survives power loss
batch      OS-buffered writes; fsync only on :meth:`WriteAheadLog.sync`
           (checkpoints and clean shutdown call it) — an acked op
           survives a process crash, not necessarily power loss
never      no fsync ever, not even on sync() — benchmarking baseline
=========  ==========================================================
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.core.io import fsync_directory
from repro.errors import WALCorruptionError

#: File-header magic: identifies a DG WAL, version 1.
MAGIC = b"DGWAL1\n"
_HEADER = struct.Struct(f"<{len(MAGIC)}sQI")
#: Per-record frame magic ("WALR" little-endian).
RECORD_MAGIC = 0x57414C52
_FRAME = struct.Struct("<IQI I".replace(" ", ""))

#: Accepted fsync policies (see module docstring).
FSYNC_POLICIES = ("always", "batch", "never")


def _crc_header(base_seq: int) -> int:
    return zlib.crc32(MAGIC + struct.pack("<Q", base_seq)) & 0xFFFFFFFF


def _crc_record(seq: int, payload: bytes) -> int:
    return zlib.crc32(struct.pack("<Q", seq) + payload) & 0xFFFFFFFF


def encode_record(seq: int, op: dict) -> bytes:
    """Frame one operation as an appendable byte string."""
    payload = json.dumps(op, separators=(",", ":"), sort_keys=True).encode()
    return (
        _FRAME.pack(RECORD_MAGIC, seq, len(payload), _crc_record(seq, payload))
        + payload
    )


class WALScan:
    """Result of scanning a log file: header, intact records, tail report.

    Attributes
    ----------
    base_seq:
        Applied-sequence watermark from the file header.
    records:
        ``(seq, op)`` pairs for every fully-framed record, in order.
    valid_bytes:
        File offset just past the last intact record — where an append
        handle must truncate to before writing.
    torn_bytes:
        Bytes of torn tail dropped (0 for a cleanly closed log).
    """

    def __init__(
        self,
        base_seq: int,
        records: list,
        valid_bytes: int,
        torn_bytes: int,
    ) -> None:
        self.base_seq = base_seq
        self.records = records
        self.valid_bytes = valid_bytes
        self.torn_bytes = torn_bytes

    @property
    def last_seq(self) -> int:
        """Sequence of the final intact record (``base_seq`` when empty)."""
        return self.records[-1][0] if self.records else self.base_seq

    def __repr__(self) -> str:
        return (
            f"WALScan(base_seq={self.base_seq}, records={len(self.records)}, "
            f"valid_bytes={self.valid_bytes}, torn_bytes={self.torn_bytes})"
        )


def scan_wal(path: str) -> WALScan:
    """Read a log file, tolerating a torn tail, rejecting real corruption.

    The scanner walks frames from the start.  The first frame that is
    incomplete, fails its magic/CRC, or breaks the consecutive-sequence
    rule ends the scan: if *everything* from that offset to EOF is the
    (at most one frame long) remnant of an interrupted append, it is a
    torn tail and is reported as dropped; if intact frames continue
    behind the damage, the file has a hole in the middle and
    :class:`~repro.errors.WALCorruptionError` is raised — skipping the
    hole would silently drop acknowledged operations.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size:
        raise WALCorruptionError(
            f"file shorter than the {_HEADER.size}-byte header",
            path=path,
            offset=0,
        )
    magic, base_seq, header_crc = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WALCorruptionError("bad header magic", path=path, offset=0)
    if header_crc != _crc_header(base_seq):
        raise WALCorruptionError("header CRC mismatch", path=path, offset=0)

    records: list = []
    offset = _HEADER.size
    expected = base_seq + 1
    while True:
        if offset == len(data):
            return WALScan(base_seq, records, offset, 0)
        if offset + _FRAME.size > len(data):
            break  # incomplete frame header: candidate torn tail
        frame_magic, seq, length, crc = _FRAME.unpack_from(data, offset)
        if frame_magic != RECORD_MAGIC:
            break
        end = offset + _FRAME.size + length
        if end > len(data):
            break  # incomplete payload: candidate torn tail
        payload = data[offset + _FRAME.size:end]
        if crc != _crc_record(seq, payload):
            break
        if seq != expected:
            # A torn tail is a *partial* frame; a complete CRC-valid
            # frame whose sequence jumps or regresses means history has
            # a hole (or a duplicate) and must not be replayed around.
            raise WALCorruptionError(
                f"sequence discontinuity: expected record {expected}, "
                f"found intact record {seq}",
                path=path,
                offset=offset,
            )
        try:
            op = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # CRC passed but the payload is not an operation: the writer
            # was broken, not the storage.  Never replay it.
            raise WALCorruptionError(
                f"record {seq} has a valid CRC but undecodable payload: {exc}",
                path=path,
                offset=offset,
            ) from exc
        records.append((seq, op))
        offset = end
        expected += 1

    # The frame at `offset` is damaged.  A torn tail is at most one
    # interrupted append; if another intact frame (with the *next*
    # expected sequence) can be parsed anywhere behind it, the damage is
    # a hole, not a tail.
    tail = len(data) - offset
    if _has_frame_beyond(data, offset + 1, expected):
        raise WALCorruptionError(
            f"record {expected} is damaged but intact records follow "
            "(mid-log corruption, not a torn tail)",
            path=path,
            offset=offset,
        )
    return WALScan(base_seq, records, offset, tail)


def _has_frame_beyond(data: bytes, start: int, min_seq: int) -> bool:
    """True when an intact frame with seq >= min_seq parses after start."""
    probe = data.find(struct.pack("<I", RECORD_MAGIC), start)
    while probe != -1:
        if probe + _FRAME.size <= len(data):
            _, seq, length, crc = _FRAME.unpack_from(data, probe)
            end = probe + _FRAME.size + length
            if (
                seq >= min_seq
                and end <= len(data)
                and crc == _crc_record(seq, data[probe + _FRAME.size:end])
            ):
                return True
        probe = data.find(struct.pack("<I", RECORD_MAGIC), probe + 1)
    return False


def create_wal(path: str, base_seq: int = 0) -> None:
    """Write a fresh, empty log atomically (temp file + rename)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, base_seq, _crc_header(base_seq)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: Alias making call sites read as what they mean: checkpointing
#: truncates the log by atomically replacing it with an empty successor
#: whose ``base_seq`` is the checkpoint's applied watermark.
reset_wal = create_wal


class WriteAheadLog:
    """Single-writer append handle over a scanned log file.

    Opening scans the file (:func:`scan_wal`), truncates any torn tail,
    and positions for append; a caller that already scanned it (recovery)
    passes that ``scan`` so the log is parsed once.  Not thread-safe by
    itself — the :class:`~repro.serve.index.ServingIndex` writer lock
    serializes access, which is the single-writer design of the paper's
    Section V maintenance.
    """

    def __init__(
        self, path: str, *, fsync: str = "always", scan: WALScan | None = None
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r} (choose from {FSYNC_POLICIES})"
            )
        self.path = path
        self.fsync = fsync
        self.scan = scan_wal(path) if scan is None else scan
        self._next_seq = self.scan.last_seq + 1
        self._handle = open(path, "r+b")
        self._handle.truncate(self.scan.valid_bytes)
        self._handle.seek(self.scan.valid_bytes)
        self._synced = True

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended (or scanned) record."""
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        """Whether the log file handle has been closed."""
        return self._handle.closed

    def tell(self) -> int:
        """Current append offset (bytes of intact log)."""
        return self._handle.tell()

    def append(self, op: dict) -> int:
        """Frame, write, and (per policy) sync one operation; return its seq."""
        if self._handle.closed:
            raise ValueError("write-ahead log is closed")
        seq = self._next_seq
        self._handle.write(encode_record(seq, op))
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
        else:
            self._synced = False
        self._next_seq = seq + 1
        return seq

    def sync(self) -> None:
        """Flush and fsync pending appends (no-op under policy ``never``)."""
        if self._handle.closed:
            return
        self._handle.flush()
        if self.fsync != "never" and not self._synced:
            os.fsync(self._handle.fileno())
        self._synced = True

    def close(self) -> None:
        """Sync (per policy) and release the file handle.  Idempotent."""
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={self.path!r}, fsync={self.fsync!r}, "
            f"last_seq={self.last_seq}, closed={self.closed})"
        )


def wal_record_offsets(path: str) -> list:
    """Byte offset of every frame boundary, header first, EOF last.

    The crash harness (:mod:`repro.testing.concurrency`) truncates a
    copied log at and between these offsets to simulate a writer killed
    at any point of an append, including mid-record.
    """
    scan = scan_wal(path)
    offsets = [_HEADER.size]
    with open(path, "rb") as handle:
        data = handle.read()
    offset = _HEADER.size
    for _seq, _op in scan.records:
        _, _, length, _ = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size + length
        offsets.append(offset)
    return offsets


# Exposed so tests and the crash harness can compute frame geometry
# without reaching into the struct internals.
FRAME_HEADER_SIZE = _FRAME.size
HEADER_SIZE = _HEADER.size
