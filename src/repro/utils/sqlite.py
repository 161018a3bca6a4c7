"""The one way this repo opens a SQLite store — the result cache and the
service's job store: crash safety comes from transactions, so a killed
process leaves the database at its last commit, with no repair pass."""

from __future__ import annotations

import os
import sqlite3

#: how long a blocked connection waits for another process's commit
#: before giving up (seconds): the connect timeout and PRAGMA busy_timeout
BUSY_TIMEOUT_S = 30.0


def connect(path: str, schema: str) -> sqlite3.Connection:
    """``path`` opened in WAL mode with ``schema`` (one ``CREATE ... IF
    NOT EXISTS``) applied, its directory created if missing.

    The connection may be used from any thread: its owner serializes
    every use behind its own lock, because sqlite3 objects are not safe
    under concurrent execute/commit.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    conn = sqlite3.connect(path, check_same_thread=False,
                           timeout=BUSY_TIMEOUT_S)
    try:
        # WAL keeps readers unblocked during commits; the busy timeout
        # makes concurrent *processes* sharing one file wait out each
        # other's commits instead of raising "database is locked"
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        conn.execute(schema)
        conn.commit()
    except BaseException:
        conn.close()  # e.g. "file is not a database": leak nothing
        raise
    return conn
