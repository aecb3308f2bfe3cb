"""The on-disk tier of the canonical solve cache.

The in-memory :class:`~repro.core.canonical.CanonicalSolveCache` dies with
the process; this module gives it an optional content-addressed backing
store so warm results survive restarts and are shared between worker
processes.  Entries are keyed by the SHA-256 digest of the full canonical
solve key — ``(objective key, canonical instance key)`` from
:mod:`repro.core.canonical` — so two processes that canonicalize isomorphic
instances address the same file without coordination.

Layout and invariants:

* ``<root>/<version-tag>/<digest[:2]>/<digest>.json`` — one JSON file per
  entry, fanned out over 256 prefix directories.  The version tag encodes
  both the entry format and the interval-DP engine version
  (``v1-engine-2.0``), so bumping :data:`repro.core.interval_dp.ENGINE_VERSION`
  silently invalidates every stale entry: old files are simply never
  addressed again (``repro-sched cache stats`` reports them as stale,
  ``cache clear`` removes them).
* **Atomic writes.**  Entries are written to a temp file in the same
  directory and ``os.replace``\\ d into place, so a concurrent reader — or
  a crashed writer — can never observe a torn entry.  Unreadable or
  mismatched files are treated as misses.
* **Verbatim replay.**  An entry stores ``(feasible, value, canonical
  assignment, engine metadata)`` exactly as the in-memory tier does, so a
  disk hit replays the original solve's engine metadata byte-identically
  in the result envelope, in any process, on any later day.
* **Single-flight locking.**  Processes that share a cache directory may
  canonicalize to the *same* solve key at once: concurrent races or
  processes given the same ``--cache-dir``, and pool workers whose
  different problems decompose into the same component.  ``try_lock`` /
  ``unlock`` implement a per-digest advisory lock (``O_CREAT | O_EXCL``
  lock file carrying the owner pid); the loser of the lock race waits via
  ``wait_for_entry`` for the winner's entry instead of burning the same
  DP twice.  Locks are advisory and crash-safe: a lock whose owner pid is
  dead is broken on sight, waiting is bounded, and a timed-out waiter
  simply solves — duplicated work, never a wrong or missing result.

The process-wide handle is installed with :func:`configure_disk_cache`
(the CLI's ``--cache-dir`` flag, or the ``REPRO_CACHE_DIR`` environment
variable when nothing was configured explicitly); the solver adapters in
:mod:`repro.api.solvers` consult :func:`get_disk_cache` on every memory
miss and populate both tiers on every fresh solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Dict, Optional, Tuple

from ..core.exceptions import CacheConfigurationError
from ..core.interval_dp import ENGINE_VERSION

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "ENTRY_FORMAT",
    "DiskSolveCache",
    "cache_key_digest",
    "configure_disk_cache",
    "get_disk_cache",
    "disk_cache_dir",
]

#: Environment variable consulted when no cache directory is configured.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: On-disk entry format; bump when the entry JSON shape changes.
ENTRY_FORMAT = 1


def cache_key_digest(key: Tuple) -> str:
    """Stable SHA-256 hex digest of a full canonical solve key.

    The key is a nested tuple of ints, floats and strings (the objective
    key plus :attr:`repro.core.canonical.CanonicalForm.key`), whose
    ``repr`` is deterministic across processes and platforms.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class DiskSolveCache:
    """Content-addressed persistent store for canonical solve entries.

    Values mirror the in-memory tier: ``(feasible, value, assignment,
    engine_meta)`` with ``assignment`` a tuple of ``(slot, column)`` pairs.
    Hit/miss/write counters are per-process (the on-disk inventory is what
    ``stats()`` reports as ``entries``/``bytes``).
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.version_tag = f"v{ENTRY_FORMAT}-engine-{ENGINE_VERSION}"
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._lock = threading.Lock()
        # Fail fast: a path shadowed by a file or an unwritable directory
        # must be a clear configuration error here, not a raw OSError out
        # of some later entry write deep inside a solve.
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise CacheConfigurationError(
                f"cache path {self.root!r} exists and is not a directory; "
                "point --cache-dir / REPRO_CACHE_DIR at a directory"
            )
        version_dir = os.path.join(self.root, self.version_tag)
        try:
            os.makedirs(version_dir, exist_ok=True)
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=version_dir)
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise CacheConfigurationError(
                f"cache directory {self.root!r} is not writable: {exc}"
            ) from exc

    # -- addressing ---------------------------------------------------------
    def _entry_path(self, digest: str) -> str:
        return os.path.join(
            self.root, self.version_tag, digest[:2], f"{digest}.json"
        )

    def _lock_path(self, digest: str) -> str:
        return os.path.join(
            self.root, self.version_tag, digest[:2], f"{digest}.lock"
        )

    # -- single-flight locking ----------------------------------------------
    def try_lock(self, key: Tuple) -> bool:
        """Try to become the single flight solving ``key``.

        Returns ``True`` when this process now holds the per-digest lock
        (and must :meth:`unlock` when its entry is written or the solve
        aborts).  A lock file whose recorded owner pid no longer exists —
        the owner crashed or was hard-killed mid-solve — is broken and
        re-acquired, so preempted portfolio members can never wedge the
        key they were solving.
        """
        digest = cache_key_digest(key)
        path = self._lock_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for _attempt in (0, 1):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._lock_is_stale(path):
                    return False
                try:  # break the dead owner's lock, then retry once
                    os.unlink(path)
                except OSError:
                    return False
                continue
            except OSError:
                return False  # unwritable tier: act lockless
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            finally:
                os.close(fd)
            return True
        return False

    @staticmethod
    def _lock_is_stale(path: str) -> bool:
        """True when the lock's recorded owner process is provably gone."""
        try:
            with open(path, "r", encoding="ascii") as handle:
                pid = int(handle.read().strip())
        except (OSError, ValueError):
            pid = 0
        if pid <= 0:
            # Empty (its creator has not written its pid yet), torn or
            # already removed: only treat as stale once it is old enough
            # that no live writer can still be mid-write.
            try:
                return time.time() - os.path.getmtime(path) > 10.0
            except OSError:
                return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False  # EPERM: alive but not ours
        return False

    def unlock(self, key: Tuple) -> None:
        """Release this process's single-flight lock on ``key`` (idempotent)."""
        try:
            os.unlink(self._lock_path(cache_key_digest(key)))
        except OSError:
            pass

    def wait_for_entry(
        self,
        key: Tuple,
        timeout: float = 120.0,
        poll_interval: float = 0.005,
    ) -> Optional[Tuple]:
        """Wait for another process's in-flight solve of ``key`` to land.

        Polls until the entry exists (returning it loaded), the lock
        disappears or goes stale without an entry (the flight aborted —
        returns ``None`` so the caller solves), or ``timeout`` expires
        (``None`` likewise).  The poll interval backs off 5ms → 100ms.
        """
        digest = cache_key_digest(key)
        deadline = time.monotonic() + timeout
        interval = poll_interval
        while True:
            if os.path.isfile(self._entry_path(digest)):
                entry = self.get(key)
                if entry is not None:
                    return entry
            lock_path = self._lock_path(digest)
            if not os.path.exists(lock_path) or self._lock_is_stale(lock_path):
                # The flight is over (or died): one last entry check wins
                # the race where the writer replaced the entry and then
                # unlocked between our two probes above.
                entry = self.get(key)
                if entry is not None:
                    return entry
                return None
            if time.monotonic() >= deadline:
                return None
            time.sleep(interval)
            interval = min(0.1, interval * 2)

    # -- the two operations the solver adapters use -------------------------
    def get(self, key: Tuple) -> Optional[Tuple]:
        """Return the stored entry for ``key``, or ``None`` on a miss.

        Torn, corrupt, or key-colliding files count as misses; the solve
        then proceeds and the fresh result overwrites the bad entry.
        """
        digest = cache_key_digest(key)
        try:
            with open(self._entry_path(digest), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            with self._lock:
                self.misses += 1
            return None
        if (
            not isinstance(data, dict)
            or data.get("format") != ENTRY_FORMAT
            or data.get("engine_version") != ENGINE_VERSION
            or data.get("key") != repr(key)
        ):
            with self._lock:
                self.misses += 1
            return None
        try:
            assignment = data["assignment"]
            entry = (
                bool(data["feasible"]),
                data["value"],
                None
                if assignment is None
                else tuple((int(slot), int(col)) for slot, col in assignment),
                data["engine_meta"],
            )
        except (KeyError, TypeError, ValueError):
            # A file that parses as JSON but no longer decodes as an entry
            # (hand-edited, bit-rotted, or written by a future format) is
            # as dead as a torn one: miss, solve fresh, overwrite.
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return entry

    def put(self, key: Tuple, entry: Tuple) -> None:
        """Atomically persist ``entry`` under ``key`` (last writer wins)."""
        feasible, value, assignment, engine_meta = entry
        digest = cache_key_digest(key)
        payload = {
            "format": ENTRY_FORMAT,
            "engine_version": ENGINE_VERSION,
            "key": repr(key),
            "feasible": bool(feasible),
            "value": value,
            "assignment": None
            if assignment is None
            else [[slot, col] for slot, col in assignment],
            "engine_meta": engine_meta,
        }
        path = self._entry_path(digest)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        with self._lock:
            self.writes += 1

    # -- operator surface (repro-sched cache stats|clear) -------------------
    def _walk_entries(self):
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".json") and not filename.startswith(".tmp-"):
                    yield os.path.join(dirpath, filename)

    def stats(self) -> Dict[str, object]:
        """On-disk inventory plus this process's hit/miss/write counters."""
        entries = stale = size_bytes = 0
        current = os.path.join(self.root, self.version_tag) + os.sep
        for path in self._walk_entries():
            try:
                size_bytes += os.path.getsize(path)
            except OSError:
                continue
            if path.startswith(current):
                entries += 1
            else:
                stale += 1
        with self._lock:
            hits, misses, writes = self.hits, self.misses, self.writes
        return {
            "path": self.root,
            "version": self.version_tag,
            "entries": entries,
            "stale_entries": stale,
            "bytes": size_bytes,
            "hits": hits,
            "misses": misses,
            "writes": writes,
        }

    def counters(self) -> Dict[str, int]:
        """This process's hit/miss/write counters (consistent snapshot)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    def reset_counters(self) -> None:
        """Zero the per-process counters (the on-disk entries stay)."""
        with self._lock:
            self.hits = self.misses = self.writes = 0

    def clear(self) -> int:
        """Remove every entry (all versions); returns the number removed.

        Leftover single-flight lock files are swept too (they are not
        entries and do not count toward the return value).
        """
        removed = 0
        for path in list(self._walk_entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".lock"):
                    try:
                        os.unlink(os.path.join(dirpath, filename))
                    except OSError:
                        continue
        return removed


# ---------------------------------------------------------------------------
# the process-wide handle
# ---------------------------------------------------------------------------
_DISK: Optional[DiskSolveCache] = None
#: True once configure_disk_cache() ran; blocks later env-var resolution so
#: an explicit configure (including "off") always wins.
_EXPLICIT = False
_HANDLE_LOCK = threading.Lock()


def configure_disk_cache(path: Optional[str]) -> Optional[DiskSolveCache]:
    """Enable the disk tier rooted at ``path`` (``None`` disables it).

    Reconfiguring to the directory already in use keeps the live handle
    (and its counters); any other path replaces it.
    """
    global _DISK, _EXPLICIT
    with _HANDLE_LOCK:
        _EXPLICIT = True
        if path is None:
            _DISK = None
        elif _DISK is None or _DISK.root != os.path.abspath(path):
            _DISK = DiskSolveCache(path)
        return _DISK


def get_disk_cache() -> Optional[DiskSolveCache]:
    """The active disk tier, or ``None`` when disabled.

    Until :func:`configure_disk_cache` is called, the ``REPRO_CACHE_DIR``
    environment variable is consulted on every lookup, so spawning a
    worker with the variable set is enough to share a cache directory.
    """
    global _DISK
    with _HANDLE_LOCK:
        if _DISK is not None or _EXPLICIT:
            return _DISK
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if not env:
        return None
    with _HANDLE_LOCK:
        if _DISK is None and not _EXPLICIT:
            _DISK = DiskSolveCache(env)
        return _DISK


def disk_cache_dir() -> Optional[str]:
    """Root directory of the active disk tier, or ``None`` when disabled."""
    cache = get_disk_cache()
    return None if cache is None else cache.root
