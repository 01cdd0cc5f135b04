"""Content-addressed, self-verifying on-disk artifact cache.

Every pipeline stage artifact (contamination replay, necessity report, wash
clusters, candidate path pools, ILP outcomes and incumbents, whole
benchmark runs) is stored under a key that is a SHA-256 digest of
canonical JSON describing *everything the artifact depends on*: the assay
graph, the chip, the binding and baseline schedule, the relevant
:class:`PDWConfig` fields.  Entry files are named by the key and the
:func:`code_salt`, a hash of ``repro``'s own source (not SciPy/HiGHS or
the Python version) taken at a process's first cache access.  Identical
inputs therefore hit across processes and sessions, and any input or
code change misses cleanly.  Nothing removes the orphaned entries on its
own: ``pdw cache gc`` evicts them under a size bound
(``REPRO_CACHE_MAX_BYTES`` or ``--max-bytes``), ``pdw cache clear`` drops
everything.

Entries are self-verifying: each file carries a small header (magic bytes,
an entry-format version, and the SHA-256 of the pickled payload) written
atomically (temp file + ``os.replace``) so concurrent writers of the same
digest are safe.  :meth:`ArtifactCache.get` verifies the checksum before
unpickling and **quarantines** — moves to ``quarantine/`` with a logged
reason, never deletes — any entry with a bad header, mismatched checksum
or unpicklable payload; the caller sees a plain miss and recomputes.
:meth:`ArtifactCache.verify` runs the same check over the whole store
(``pdw cache verify``), and :meth:`ArtifactCache.gc` applies a size bound
with mtime-ordered (LRU-ish — reads touch the mtime) eviction, configured
through ``REPRO_CACHE_MAX_BYTES`` (``pdw cache gc``).

The default cache directory is ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro-pdw``; set ``REPRO_CACHE=off`` to disable disk caching
globally.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

from repro.envutil import env_int, pick
from repro.pipeline import chaos

#: Leading magic bytes of every entry file.
ENTRY_MAGIC = b"RPDW"
#: On-disk entry format version (one byte after the magic); bump it when
#: the framing changes.
ENTRY_FORMAT = 2
#: magic + format byte + SHA-256 of the payload.
_HEADER_LEN = len(ENTRY_MAGIC) + 1 + 32

#: Subdirectory quarantined entries are moved to (never deleted).
QUARANTINE_DIR = "quarantine"

#: Environment variable bounding the store size in bytes (optional K/M/G
#: binary suffix, e.g. ``512M``).
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: How many :meth:`ArtifactCache.put` calls between opportunistic size
#: enforcements (a full store walk per put would be wasteful).
_GC_PUT_INTERVAL = 64

_logger = logging.getLogger(__name__)

_PACKAGE_DIR = Path(__file__).resolve().parent.parent
_code_salt: Optional[str] = None  # memoized: an edit after first use is not seen


def code_salt() -> str:
    """SHA-256 over every ``repro/**/*.py`` file's relative path and bytes,
    in sorted path order; hashed on first use, then memoized per process."""
    global _code_salt
    if _code_salt is None:
        paths = {p.relative_to(_PACKAGE_DIR).as_posix(): p for p in _PACKAGE_DIR.rglob("*.py")}
        sha = hashlib.sha256()
        for rel in sorted(paths):
            data = paths[rel].read_bytes()
            sha.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
        _code_salt = sha.hexdigest()
    return _code_salt


# ---------------------------------------------------------------------------
# stable digests
# ---------------------------------------------------------------------------

def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable plain data, deterministically."""
    import enum

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__, _canonical(asdict(obj))]
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {str(_canonical(k)): _canonical(v) for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(str(_canonical(item)) for item in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for digesting")


def stable_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``parts``.

    The digest is stable across processes and python versions (no
    ``hash()`` randomization, no ``repr`` reliance).
    """
    payload = json.dumps(
        _canonical(list(parts)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_config(config: Any) -> str:
    """Digest of a :class:`~repro.core.config.PDWConfig` (or any dataclass)."""
    return stable_digest("config", config)


def digest_synthesis(synthesis: Any) -> str:
    """Digest of a :class:`~repro.synth.synthesis.SynthesisResult`.

    Covers the assay graph, the chip architecture, the operation binding,
    the reagent-port assignment and the baseline schedule — everything the
    wash optimizers read.
    """
    from repro.arch.io import chip_to_dict
    from repro.assay.io import graph_to_dict

    tasks = [
        [
            t.id, t.kind.value, t.start, t.duration,
            list(t.path) if t.path else None,
            t.device, t.fluid_type,
            list(t.edge) if t.edge else None,
            t.op_id,
        ]
        for t in synthesis.schedule.tasks()
    ]
    return stable_digest(
        "synthesis",
        graph_to_dict(synthesis.assay),
        chip_to_dict(synthesis.chip),
        dict(synthesis.binding),
        dict(synthesis.reagent_ports),
        tasks,
        dict(synthesis.fluid_types),
    )


# ---------------------------------------------------------------------------
# size bound
# ---------------------------------------------------------------------------

def max_cache_bytes() -> Optional[int]:
    """The ``REPRO_CACHE_MAX_BYTES`` size bound, or ``None`` when unset.

    A malformed value is treated as unset with a warning rather than
    crashing whatever pipeline happened to touch the cache first (see
    :func:`repro.envutil.env_int`).
    """
    return env_int(ENV_MAX_BYTES, minimum=0, suffixes=True)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

def _decode(data: bytes, corrupt: bool = False) -> Tuple[Optional[str], Any]:
    """``(quarantine reason or None, artifact)`` for one entry file's bytes.

    ``corrupt`` flips payload bits first (the ``cache:corrupt`` chaos fault).
    """
    if len(data) < _HEADER_LEN or data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        return "bad-header", None
    if data[len(ENTRY_MAGIC)] != ENTRY_FORMAT:
        return f"entry-format-{data[len(ENTRY_MAGIC)]}", None
    payload = data[_HEADER_LEN:]
    if corrupt:
        payload = chaos.corrupt_payload(payload)
    if hashlib.sha256(payload).digest() != data[len(ENTRY_MAGIC) + 1 : _HEADER_LEN]:
        return "checksum-mismatch", None
    try:
        return None, pickle.loads(payload)
    except Exception as exc:
        return f"unpicklable-{type(exc).__name__}", None


@dataclass
class VerifyReport:
    """Outcome of :meth:`ArtifactCache.verify`."""

    checked: int = 0
    ok: int = 0
    #: ``(entry file name, reason)`` for every entry quarantined this pass.
    quarantined: List[Tuple[str, str]] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"checked {self.checked} entries: {self.ok} ok, "
            f"{len(self.quarantined)} quarantined"
        ]
        lines.extend(f"  {name}: {reason}" for name, reason in self.quarantined)
        return "\n".join(lines)


class ArtifactCache:
    """A content-addressed, self-verifying pickle store under one directory.

    An entry's file name hashes its digest with the :func:`code_salt`, so
    entries written by other code are plain misses.  Entries are sharded
    two levels deep (``ab/cdef...pkl``) to keep directory listings small.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._puts = 0

    # -- core API -----------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        name = hashlib.sha256(f"{code_salt()}:{digest}".encode("utf-8")).hexdigest()
        return self.root / name[:2] / f"{name[2:]}.pkl"

    def get(self, digest: str) -> Optional[Any]:
        """The artifact stored under ``digest``, or ``None`` on a miss.

        The payload checksum is verified against the entry header before
        unpickling; an entry with a bad header, mismatched checksum or
        unpicklable payload is *quarantined* (moved under ``quarantine/``
        with a logged reason, never deleted) and reported as a miss so the
        caller recomputes cleanly.
        """
        chaos.trip(chaos.CACHE_TARGET)
        path = self._path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        fault = chaos.fault_for(chaos.CACHE_TARGET)
        reason, artifact = _decode(data, corrupt=fault is not None and fault.mode == "corrupt")
        if reason is not None:
            self._quarantine(path, reason)
            return None
        # LRU-ish: a hit refreshes the mtime so gc evicts cold entries first.
        with contextlib.suppress(OSError):
            os.utime(path)
        return artifact

    def put(self, digest: str, artifact: Any) -> None:
        """Store ``artifact`` under ``digest`` (atomic, last-writer-wins)."""
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        header = ENTRY_MAGIC + bytes([ENTRY_FORMAT]) + hashlib.sha256(payload).digest()
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._puts += 1
        if self._puts % _GC_PUT_INTERVAL == 0 and max_cache_bytes() is not None:
            self.gc()

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    # -- integrity ---------------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a bad entry under ``quarantine/`` and log why.

        Never deletes: the bytes stay available for postmortems.  Returns
        the quarantine path, or ``None`` when the move itself failed (e.g.
        a concurrent reader already moved it).
        """
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        dest = qdir / f"{path.parent.name}{path.name}"
        if dest.exists():
            dest = qdir / f"{path.parent.name}{path.stem}.{int(time.time() * 1e6)}{path.suffix}"
        try:
            os.replace(path, dest)
        except OSError:
            return None
        record = {
            "ts": time.time(),
            "entry": f"{path.parent.name}/{path.name}",
            "quarantined_as": dest.name,
            "reason": reason,
        }
        with contextlib.suppress(OSError):
            with (qdir / "log.jsonl").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        _logger.warning(
            "quarantined cache entry %s/%s (%s)", path.parent.name, path.name, reason
        )
        return dest

    def verify(self) -> VerifyReport:
        """Check every entry's header and checksum, quarantining bad ones."""
        report = VerifyReport()
        for path in list(self.entries()):
            report.checked += 1
            reason = self._inspect(path)
            if reason is None:
                report.ok += 1
            else:
                self._quarantine(path, reason)
                report.quarantined.append((f"{path.parent.name}/{path.name}", reason))
        return report

    def _inspect(self, path: Path) -> Optional[str]:
        """The quarantine reason for a bad entry file, or ``None`` if sound."""
        try:
            data = path.read_bytes()
        except OSError:
            return None  # vanished concurrently; nothing to quarantine
        return _decode(data)[0]

    def quarantined(self) -> Iterator[Path]:
        """All quarantined entry files."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return iter(())
        return (p for p in qdir.iterdir() if p.suffix == ".pkl")

    # -- maintenance ---------------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """All stored (non-quarantined) entry files."""
        if not self.root.exists():
            return iter(())
        return (
            p for p in self.root.glob("*/*.pkl") if p.parent.name != QUARANTINE_DIR
        )

    def stats(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the store."""
        count = total = 0
        for path in self.entries():
            count += 1
            total += path.stat().st_size
        return count, total

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict oldest-mtime entries until the store fits ``max_bytes``.

        ``max_bytes`` defaults to ``$REPRO_CACHE_MAX_BYTES``; with neither
        set this is a no-op.  Reads refresh mtimes (see :meth:`get`), so
        eviction is LRU-ish.  Returns ``(entries removed, bytes freed)``.
        """
        limit = max_bytes if max_bytes is not None else max_cache_bytes()
        if limit is None:
            return 0, 0
        entries = []
        total = 0
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort(key=lambda item: item[0])
        removed = freed = 0
        for _, size, path in entries:
            if total <= limit:
                break
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
                freed += size
                total -= size
        return removed, freed

    def clear(self) -> int:
        """Delete every (non-quarantined) entry; returns how many."""
        removed = 0
        for path in list(self.entries()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# the default store
# ---------------------------------------------------------------------------

def cache_enabled() -> bool:
    """Whether disk caching is globally enabled (``REPRO_CACHE`` gate)."""
    return os.environ.get("REPRO_CACHE", "").lower() not in ("0", "off", "false", "no")


def default_cache_dir(explicit: Optional[str] = None) -> Path:
    """Resolve the cache directory with the shared flag/env/default precedence.

    ``explicit`` (a ``--cache DIR`` flag) beats ``$REPRO_CACHE_DIR`` beats
    the XDG default ``~/.cache/repro-pdw`` — the one precedence rule for
    every surface that takes a cache directory (``pdw cache``, ``pdw
    serve``), implemented by :func:`repro.envutil.pick`.
    """
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return Path(pick(explicit, "REPRO_CACHE_DIR", str(base / "repro-pdw")))


def default_cache(explicit: Optional[str] = None) -> Optional[ArtifactCache]:
    """The process-wide default cache, or ``None`` when disabled."""
    if not cache_enabled():
        return None
    return ArtifactCache(default_cache_dir(explicit))
