"""Content-addressed compile cache for the HLS flow.

Running a variant sweep recompiles the same handful of sources with the
same macro sets over and over — once per job, and once per *worker
process* when the sweep fans out.  This module caches the expensive
part of :class:`~repro.core.program.Program` construction (lowering +
transforms + scheduling + area, i.e. the finished
:class:`~repro.hls.compiler.Accelerator`) keyed by everything that
determines its content:

* the mini-C source text,
* the macro set (``defines``) and synthesis constants (``const_env``),
* the :class:`~repro.hls.compiler.HLSOptions` (whose frozen-dataclass
  ``repr`` covers every schedule/profiling knob),
* the package version and cache format (so upgrades invalidate).

Entries are pickled accelerators under ``~/.cache/repro`` (override
with ``REPRO_CACHE_DIR`` or the ``directory`` argument), written
atomically (temp file + rename) so concurrent sweep workers can share
one cache directory without locks: the worst race is two workers
compiling the same key and one rename winning — both results are
identical by construction.

Corrupt, unreadable or version-mismatched entries are treated as
misses, never errors.  Hits/misses/stores are reported through
:mod:`repro.telemetry` (``compile_cache.hits`` / ``.misses`` /
``.stores``) and kept as plain counters on the cache object.

The cache is **opt-in**: nothing is read or written unless a
:class:`CompileCache` is passed to :class:`~repro.core.program.Program`
(or the ``REPRO_COMPILE_CACHE`` environment variable enables a
process-wide default).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Mapping, Optional, Union

from .. import telemetry
from .compiler import Accelerator, HLSOptions

__all__ = [
    "CompileCache", "get_default_cache", "resolve_cache",
    "default_cache_dir",
]

#: bump to invalidate every existing cache entry on format changes
_FORMAT = 1


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""

    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not xdg:
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro")


class CompileCache:
    """On-disk + in-memory cache of compiled accelerators."""

    def __init__(self, directory: Optional[str] = None, *,
                 memory: bool = True):
        self.directory = directory or default_cache_dir()
        self._memory: Optional[dict[str, Accelerator]] = {} if memory else None
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key(self, source: str,
            defines: Optional[Mapping[str, Union[int, float, str]]] = None,
            const_env: Optional[Mapping[str, int]] = None,
            options: Optional[HLSOptions] = None) -> str:
        """Content hash of everything that determines the accelerator."""

        from .. import __version__
        payload = json.dumps({
            "format": _FORMAT,
            "repro": __version__,
            "source": source,
            "defines": sorted((str(k), repr(v))
                              for k, v in (defines or {}).items()),
            "const_env": sorted((str(k), int(v))
                                for k, v in (const_env or {}).items()),
            "options": repr(options or HLSOptions()),
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".pkl")

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[Accelerator]:
        """The cached accelerator for ``key``, or None (a miss)."""

        if self._memory is not None:
            cached = self._memory.get(key)
            if cached is not None:
                self.hits += 1
                telemetry.add("compile_cache.hits")
                return cached
        try:
            with open(self._path(key), "rb") as handle:
                accelerator = pickle.load(handle)
        except Exception:  # missing, corrupt, unpicklable: all misses
            self.misses += 1
            telemetry.add("compile_cache.misses")
            return None
        if not isinstance(accelerator, Accelerator):
            self.misses += 1
            telemetry.add("compile_cache.misses")
            return None
        if self._memory is not None:
            self._memory[key] = accelerator
        self.hits += 1
        telemetry.add("compile_cache.hits")
        return accelerator

    def store(self, key: str, accelerator: Accelerator) -> None:
        """Persist ``accelerator`` under ``key`` (atomic, best-effort)."""

        if self._memory is not None:
            self._memory[key] = accelerator
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(accelerator, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return  # read-only/full filesystem: cache silently disabled
        self.stores += 1
        telemetry.add("compile_cache.stores")

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    def __repr__(self) -> str:
        return (f"CompileCache({self.directory!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")


# ----------------------------------------------------------------------
# process-wide default (opt-in)
# ----------------------------------------------------------------------
_DEFAULT: Optional[CompileCache] = None
_ENV_CHECKED = False


def get_default_cache() -> Optional[CompileCache]:
    """The process-wide cache; activates from ``REPRO_COMPILE_CACHE``.

    ``REPRO_COMPILE_CACHE=1`` enables the default directory; any other
    non-empty value that is not ``0``/``off`` is used as the directory.
    """

    global _DEFAULT, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        value = os.environ.get("REPRO_COMPILE_CACHE", "")
        if value and value not in ("0", "off", "false"):
            _DEFAULT = CompileCache(None if value == "1" else value)
    return _DEFAULT


def resolve_cache(explicit: Union[CompileCache, None, bool]
                  ) -> Optional[CompileCache]:
    """Resolve a caller's ``compile_cache`` argument.

    ``None`` means "use the process default (usually disabled)"; an
    explicit :class:`CompileCache` is used as-is; ``False`` forces the
    cache off even when a default is configured.
    """

    if explicit is False:
        return None
    if isinstance(explicit, CompileCache):
        return explicit
    return get_default_cache()
