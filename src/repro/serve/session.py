"""Per-session durable state for the campaign server.

Every submission names a *session* — a client-chosen label scoping its
durable progress.  Each session is a private content-addressed
directory, a :class:`~repro.exec.cache.CellCache` at
``<state_dir>/sessions/<name>/``: results are stored there as they
complete, so a server killed mid-campaign and restarted on the same
state directory serves every already-completed cell of every session
from it — bit-identically, by the result-codec identity contract every
store shares.

A session needs no lock.  Each entry is an fsync'd temp file renamed
into place, and two writers of one fingerprint write identical bytes,
so two servers sharing one state directory share a session safely.  A
write torn by a SIGKILL leaves a stray temp file or a corrupt entry;
:meth:`CellCache.get` quarantines the latter and the cell re-runs.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict

from ..exec.cache import CellCache

__all__ = ["SessionStore", "valid_session_name", "DEFAULT_SESSION"]

#: Session used when a submit frame names none.
DEFAULT_SESSION = "default"

#: Session names are path components: one conservative token, no
#: separators, no dotfiles — a hostile name must never escape the
#: sessions directory.
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_session_name(name: str) -> bool:
    """Whether ``name`` is an acceptable session label."""
    return isinstance(name, str) and bool(_SESSION_NAME.match(name))


class SessionStore:
    """Lazily-opened per-session result directories.

    Thread-safe: the server opens sessions and reads/writes entries on
    its dedicated I/O thread (blocking file I/O and fsync must not
    stall the event loop), while stats queries read from the loop
    thread; a plain lock guards the open-once map.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._sessions: Dict[str, CellCache] = {}
        self._lock = threading.Lock()

    def open(self, session: str) -> CellCache:
        """The session's directory, created on first use.

        Raises :class:`~repro.errors.ConfigError` when the path is not
        usable as a directory — surfaced to the client as a structured
        rejection, never a crash.
        """
        with self._lock:
            store = self._sessions.get(session)
            if store is None:
                store = CellCache(os.path.join(self.root, session))
                self._sessions[session] = store
            return store

    def open_count(self) -> int:
        with self._lock:
            return len(self._sessions)
