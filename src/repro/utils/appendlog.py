"""A crash-tolerant append-only JSONL log: one JSON object per line.

The durability contract of the service's job store
(:class:`repro.service.store.JobStore`):

* every :meth:`AppendLog.append` writes one complete line and flushes
  it before returning, so a crashed writer leaves a valid prefix behind;
* :meth:`AppendLog.replay` skips any line that does not parse as a JSON
  object — the truncated final line a crash leaves, or a corrupt line
  mid-file — so reopening never fails and loses only those records;
* the first append of a new writer terminates a torn final fragment
  with a newline, so the file self-repairs and the new record starts on
  its own line.

Records are addressed by the byte offset of their line, which lets the
store keep only an offset index in memory and read large payloads back
lazily with :meth:`AppendLog.read_at`. The log itself takes no lock: it
assumes one writer, and its owner serializes access behind its own.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, Tuple


def _parse(line: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object on one line, or ``None`` for a torn/corrupt line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


class AppendLog:
    """One append-only JSONL file, addressed by line byte offsets."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = None   # append handle (binary), opened on first append
        self._rfh = None  # read handle (binary), opened on first read_at

    def replay(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(offset, record)`` for every line that parses as an object."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            offset = 0
            for line in fh:
                record = _parse(line)
                if record is not None:
                    yield offset, record
                offset += len(line)

    def append(self, record: Dict[str, Any], **dumps_kwargs) -> int:
        """Write one ``sort_keys`` line, flushed; returns its byte offset.

        ``dumps_kwargs`` pass through to :func:`json.dumps` (e.g.
        ``allow_nan=False``); an unencodable record raises before any
        byte is written.
        """
        line = json.dumps(record, sort_keys=True,
                          **dumps_kwargs).encode("utf-8") + b"\n"
        if self._fh is None:
            # a previous writer that crashed mid-line left a fragment
            # without its newline: terminate it so this line stands alone
            torn = False
            if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                with open(self.path, "rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    torn = fh.read(1) != b"\n"
            self._fh = open(self.path, "ab")
            if torn:
                self._fh.write(b"\n")
                self._fh.flush()
        # O_APPEND writes land at the true end of file, which is where
        # this line starts (single-writer contract)
        offset = os.fstat(self._fh.fileno()).st_size
        self._fh.write(line)
        self._fh.flush()
        return offset

    def read_at(self, offset: int) -> Optional[Dict[str, Any]]:
        """The record whose line starts at ``offset`` (``None`` if torn)."""
        if self._rfh is None:
            self._rfh = open(self.path, "rb")
        self._rfh.seek(offset)
        return _parse(self._rfh.readline())

    def close(self) -> None:
        for handle in (self._fh, self._rfh):
            if handle is not None:
                handle.close()
        self._fh = self._rfh = None
