"""Content-keyed testbed cache: stop re-running multi-source Dijkstra.

The experiment suite builds the same networks and workloads over and
over: every figure point needs an :class:`EdgeCacheNetwork` (whose
dominant cost is the all-pairs Dijkstra RTT solve) and usually a
workload on top of it, and both are *pure functions* of a small key —
``(num_caches, config, seed)``.  :class:`TestbedCache` memoises those
builds behind a content key:

* an in-memory LRU holds the most recently used objects (testbeds are a
  few MB each, so the default capacity is small);
* an optional on-disk store (``results/cache/`` by convention) persists
  pickled builds across runs and across worker processes, so a repeated
  suite run — or a process-pool worker that missed the fork snapshot —
  loads a testbed instead of rebuilding it.

Keys embed a format version (:data:`CACHE_FORMAT_VERSION`) plus every
argument the build depends on; bump the version to invalidate all disk
entries when the construction code changes behaviour.  Cache hits are
*by construction* equivalent to a rebuild — the key covers the full
input space and builds are deterministic — so cached and fresh runs
produce bit-identical experiment results.

Hit/miss counters feed the per-figure :class:`~repro.obs.manifest.RunManifest`
(see ``run_suite``), which is how a run proves what the cache saved.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union, cast

from repro.obs.profiling import register_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topology.network import EdgeCacheNetwork

PathLike = Union[str, Path]

#: Bump to invalidate every persisted cache entry (keys embed this).
#: v2: a pickled ``Workload`` holds a columnar ``RequestLog``, not a
#: tuple of ``RequestRecord``.  v3: and a columnar ``UpdateLog``, not a
#: tuple of ``UpdateRecord``.
CACHE_FORMAT_VERSION = 3

#: Size of the in-memory LRU tier (testbeds are a few MB each).
MAX_ENTRIES = 8

#: Counter names exposed by :meth:`TestbedCache.stats`.
STAT_FIELDS = ("hits", "misses", "disk_hits", "disk_stores", "evictions")


class TestbedCache:
    """In-memory LRU plus optional pickle-on-disk store for built objects."""

    def __init__(self, disk_dir: Optional[PathLike] = None) -> None:
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._disk_dir: Optional[Path] = None
        if disk_dir is not None:
            self.set_disk_dir(disk_dir)
        self._stats: Dict[str, int] = {name: 0 for name in STAT_FIELDS}

    # -- configuration -------------------------------------------------

    @property
    def disk_dir(self) -> Optional[Path]:
        return self._disk_dir

    def set_disk_dir(self, disk_dir: Optional[PathLike]) -> None:
        """Enable (or disable, with ``None``) the on-disk store."""
        if disk_dir is None:
            self._disk_dir = None
            return
        path = Path(disk_dir)
        path.mkdir(parents=True, exist_ok=True)
        self._disk_dir = path

    # -- the cache protocol --------------------------------------------

    def get_or_build(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the cached object for ``key``, building it on miss.

        Lookup order: in-memory LRU, then the disk store (when enabled),
        then ``build()``.  Disk loads and fresh builds both populate the
        memory tier; fresh builds are also persisted to disk.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self._stats["hits"] += 1
            return self._entries[key]

        value = self._load_from_disk(key)
        if value is not None:
            self._stats["disk_hits"] += 1
        else:
            self._stats["misses"] += 1
            value = build()
            self._store_to_disk(key, value)
        self._remember(key, value)
        return value

    def _remember(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self._stats["evictions"] += 1

    def __len__(self) -> int:
        return len(self._entries)

    # -- disk tier ------------------------------------------------------

    def _path_for(self, key: str) -> Path:
        assert self._disk_dir is not None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self._disk_dir / f"{digest}.pkl"

    def _load_from_disk(self, key: str) -> Optional[Any]:
        if self._disk_dir is None:
            return None
        path = self._path_for(key)
        try:
            with open(path, "rb") as handle:
                stored_key, value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            return None
        if stored_key != key:  # pragma: no cover - hash collision guard
            return None
        return value

    def _store_to_disk(self, key: str, value: Any) -> None:
        if self._disk_dir is None:
            return
        path = self._path_for(key)
        # Write-to-temp + rename keeps concurrent pool workers safe: a
        # reader only ever sees a complete entry.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self._disk_dir), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((key, value), handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        self._stats["disk_stores"] += 1

    # -- accounting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Snapshot of the hit/miss counters."""
        return dict(self._stats)

    def absorb_stats(self, delta: Dict[str, int]) -> None:
        """Fold a worker's counter delta into this cache's counters."""
        for name, value in delta.items():
            self._stats[name] = self._stats.get(name, 0) + int(value)


def stats_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Counter difference ``after - before`` over the union of fields."""
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(before) | set(after)
    }


# -- the process-wide default cache -------------------------------------

_DEFAULT: TestbedCache = TestbedCache()


def get_cache() -> TestbedCache:
    """The process-wide cache used by the cached build helpers."""
    return _DEFAULT


register_counter(
    "repro.runtime.cache:_DEFAULT",
    lambda: _DEFAULT.stats(), lambda delta: _DEFAULT.absorb_stats(delta),
)


def configure_cache(disk_dir: Optional[PathLike] = None) -> TestbedCache:
    """Reconfigure the process-wide cache (counters are preserved)."""
    cache = _DEFAULT
    if disk_dir is not None:
        cache.set_disk_dir(disk_dir)
    return cache


def reset_cache() -> TestbedCache:
    """Replace the process-wide cache with a fresh, disk-less one."""
    global _DEFAULT  # noqa: PLW0603 - test/CLI-only swap of the process cache
    _DEFAULT = TestbedCache()
    return _DEFAULT


# -- content keys and cached builders -----------------------------------


def network_key(num_caches: int, factory_seed: int) -> str:
    """Key for :func:`cached_network` (its stream label is in the text)."""
    return (
        f"network/v{CACHE_FORMAT_VERSION}/n={num_caches}"
        f"/seed={factory_seed}/stream=topology"
    )


def testbed_key(
    num_caches: int,
    seed: int,
    requests_per_cache: int,
    num_documents: int,
) -> str:
    """Key for :func:`repro.experiments.base.build_testbed`."""
    return (
        f"testbed/v{CACHE_FORMAT_VERSION}/n={num_caches}/seed={seed}"
        f"/rpc={requests_per_cache}/docs={num_documents}"
    )


def cached_network(num_caches: int, factory_seed: int) -> "EdgeCacheNetwork":
    """Build (or fetch) the network for one ``RngFactory`` derivation.

    Equivalent to ``build_network(num_caches,
    seed=RngFactory(factory_seed).stream("topology"))`` — factory
    streams are independent generators derived only from the root seed
    and the label, so reconstructing the stream here yields the
    identical topology without touching the caller's factory.
    """
    from repro.topology.network import build_network
    from repro.utils.rng import RngFactory

    key = network_key(num_caches, factory_seed)
    value = get_cache().get_or_build(
        key,
        lambda: build_network(
            num_caches=num_caches,
            seed=RngFactory(factory_seed).stream("topology"),
        ),
    )
    return cast("EdgeCacheNetwork", value)
