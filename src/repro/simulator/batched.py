"""The data-oriented event kernel behind :meth:`SimulationEngine.run`.

The kernel runs one cache model, the paper's: utility-based replacement,
beacon lookups inside a cooperative group, an origin driven by an update
log with server-driven invalidation, a flat-cost origin, every fetched
copy placed, and no faults.  :func:`repro.simulator.engine.runs_on_kernel`
states that configuration once; every other run (LRU/LFU, directory or
multicast lookups, TTL or no consistency, origin queueing, cooperative
placement, crashes and partitions) goes through the per-event reference
oracle (:func:`repro.simulator.engine.run_reference`) and the engine's
handlers, which implement every mode.

The oracle dispatches one Python event object per step through a
handler table, paying object construction, method dispatch, and
per-event metric folds for every request.  This module replaces that
hot path with a *slice kernel* over
:class:`~repro.simulator.events.EventColumns`:

* Requests live as pre-extracted timestamp/cache/doc columns; no
  ``RequestEvent`` objects exist at all, and the kernel iterates
  memoryviews of the columns, so no per-request list is built.  The
  update columns are indexed through memoryviews the same way.
* The *barriers* (origin updates) split the request stream into
  causality-safe slices: between two barriers no origin version
  changes, so requests are processed in a tight loop with every
  per-run constant bound to a local.
* Cache state is driven inline: the kernel mutates the shared
  :class:`~repro.simulator.state.CacheStore` records and the utility
  policies' :meth:`~repro.simulator.replacement.UtilityPolicy.hot_state`
  structures directly, replaying *exactly* the operations the method
  path would have performed (same dict and heap mutations, same float
  expressions, same order).  The policy's heap pushes are deferred by
  the policy's own rule on the policy's own buffers: an entry tuple
  joins ``pending``, a full ``pending`` spills into the packed
  ``spilled`` column, and both flush into the heap only when an
  eviction is about to read it, so a run leaves the same heap, list
  and column behind as the method path.
* Metrics accumulate into flat per-cache slots (Welford recurrence and
  histogram binning inlined with identical arithmetic) and fold into
  :class:`~repro.simulator.metrics.SimulationMetrics` once at end of
  run; instrumented runs buffer trace rows per slice and mirror the
  sampler's next tick in a local so observation costs one compare
  per event.
* Origin updates are applied inline too: the origin's version dict
  (:meth:`~repro.simulator.origin.OriginServer.hot_state`) is bumped
  and the invalidation fan-out pops the document's holder-directory
  entry and drops each copy with the same dict operations the method
  path makes, counting invalidations in a flat per-cache slot.  Since
  an update drops every copy at once, no copy is ever served stale:
  trace rows carry ``stale=False`` and the stale-serve count is 0.  The
  kernel calls no engine handler.
* Nothing here may create a reference cycle: :meth:`SimulationEngine.
  run` pauses the cyclic collector around the kernel, so cyclic
  garbage made here would live until the caller's next collection.

The contract — pinned by the differential fuzz in
``tests/simulator/test_batched_loop.py`` and the sanitize ledger — is
that a kernel run is *bit-identical* to an oracle run: every metric,
trace record, sample, archived figure byte, and ledger digest.  Any
optimisation that would change a single float operation's order does
not belong here.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from math import inf
from typing import TYPE_CHECKING, Iterator, Tuple

from repro.errors import SimulationError
from repro.obs.trace import KIND_REQUEST, TraceRecord
from repro.simulator import events as events_module
from repro.simulator.events import (
    EventColumns,
    OriginUpdateEvent,
    columns_from_arrays,
)
from repro.simulator.replacement import SPILL_AT, push_spilled

if TYPE_CHECKING:
    from repro.simulator.engine import SimulationEngine

def _flush_samples(
    sampler, sample_gauges, until_ms: float,
    window_local: int, window_group: int, window_origin: int,
    window_totals: list,
) -> float:
    """Fold the open window into the sampler and flush every due tick.

    Ticks at or before ``until_ms`` are flushed, as the oracle does
    before each event.  Returns the next due tick; the caller starts a
    fresh window.
    """
    if window_totals:
        sampler.observe_batch(
            window_local, window_group, window_origin, window_totals
        )
    next_tick = sampler.next_tick_ms
    while next_tick <= until_ms:
        sampler.flush(next_tick, **sample_gauges(next_tick))
        next_tick = sampler.next_tick_ms
    return next_tick


def _flush_trace(trace, rows: list) -> None:
    """Record the buffered request rows in order, then empty the buffer."""
    trace.record_many([
        TraceRecord(
            kind=KIND_REQUEST, timestamp_ms=row[0], cache=row[1],
            doc_id=row[2], path=row[3], total_ms=row[4],
            query_ms=row[5], fetch_ms=row[6], transfer_ms=row[7],
            messages=row[8], size_bytes=row[9], counted=row[10],
            stale=row[11],
        )
        for row in rows
    ])
    del rows[:]


def _merged_stream(columns: EventColumns) -> Iterator[Tuple[str, float]]:
    """(type name, timestamp) pairs in merged event order (ledger feed)."""
    req_ts = columns.req_timestamps.tolist()
    lo = 0
    for hi, ts in zip(
        columns.barrier_positions.tolist(),
        columns.barrier_timestamps.tolist(),
    ):
        for t in req_ts[lo:hi]:
            yield ("RequestEvent", t)
        lo = hi
        yield (OriginUpdateEvent.__name__, ts)
    for t in req_ts[lo:]:
        yield ("RequestEvent", t)


def run_batched(engine: "SimulationEngine") -> int:
    """Build the workload's event columns and process them; returns the event count.

    Mutates the engine's shared state (store, policies, protocol,
    metrics, observer) exactly as the reference oracle would; the
    engine's ``run()`` wraps this with the common throughput/
    conservation postlude.
    """
    if engine._columns_consumed:
        return 0
    engine._columns_consumed = True
    requests = engine._workload.requests
    columns = columns_from_arrays(
        requests.timestamps_ms,
        requests.cache_nodes,
        requests.doc_ids,
        engine._workload.updates,
    )

    # -- event stream ------------------------------------------------
    req_ts_column = columns.req_timestamps
    req_cache_column = columns.req_caches
    req_doc_column = columns.req_docs
    total_requests = req_ts_column.size
    positions = memoryview(columns.barrier_positions)
    barrier_times = memoryview(columns.barrier_timestamps)
    barrier_docs = memoryview(columns.barrier_docs)
    num_barriers = len(positions)

    hook = events_module.column_ledger()
    if hook is not None:
        # The whole merged stream is recorded before processing, as
        # the oracle does, so ledgers agree even for runs that fail
        # mid-way.
        hook.record_stream(_merged_stream(columns))

    # -- shared state, bound to locals -------------------------------
    config = engine._config
    network = engine._network
    nodes = network.cache_nodes
    origin_node = network.origin
    size_index = nodes[-1] + 1 if nodes else 1

    store = engine._store
    used = store.used
    caches = engine._caches
    docs_by = [None] * size_index
    cap_by = [0] * size_index
    for node in nodes:
        docs_by[node] = store.docs[node]
        cap_by[node] = caches[node].capacity_bytes

    acc_by = [None] * size_index
    psz_by = [None] * size_index
    pfc_by = [None] * size_index
    pinv_by = [None] * size_index
    pver_by = [None] * size_index
    heap_by = [None] * size_index
    # The utility policy's deferred (score, version, doc) pushes: its
    # own pending tuples and spilled column (see _HeapScorePolicy).
    pend_by = [None] * size_index
    spill_by = [None] * size_index
    spill_at = SPILL_AT
    chain_from = chain.from_iterable
    for node in nodes:
        hot = caches[node].policy.hot_state()
        acc_by[node] = hot["access"]
        psz_by[node] = hot["size"]
        pfc_by[node] = hot["fetch_cost"]
        pinv_by[node] = hot["invalidations"]
        pver_by[node] = hot["version"]
        heap_by[node] = hot["heap"]
        pend_by[node] = hot["pending"]
        spill_by[node] = hot["spilled"]

    proto = engine._protocol.hot_state()
    holders_map = proto["holders"]
    lookup_ms = proto["lookup_ms"]
    group_by = [-1] * size_index
    peers_by = [None] * size_index
    members_by = [None] * size_index
    for node in nodes:
        group_by[node] = proto["group_of"][node]
        peers_by[node] = proto["peers"][node]
        members_by[node] = proto["members_sorted"][node]

    local_ms = config.cache.local_processing_ms
    bandwidth = config.link_bandwidth_bytes_per_ms
    origin_processing = config.origin_processing_ms
    rtt = network.distances.as_array()
    rtt_by = [None] * size_index
    fetch0_by = [0.0] * size_index
    for node in nodes:
        rtt_by[node] = rtt_row = rtt[node].tolist()
        # Same expression the latency model evaluates per fetch:
        # rtt-to-origin plus flat processing (a constant without origin
        # queueing, so it is hoisted out of the loop).
        fetch0_by[node] = rtt_row[origin_node] + origin_processing

    origin = engine._origin
    catalog = origin.catalog
    sizes = catalog.sizes.tolist()
    num_docs = len(sizes)
    doc_ints = list(range(num_docs))
    origin_versions = origin.hot_state()["versions"]
    origin_version = [0] * num_docs
    for doc, doc_version in origin_versions.items():
        origin_version[doc] = doc_version
    dynamic = [False] * num_docs
    for doc in catalog.dynamic_ids():
        dynamic[doc] = True
    updates_applied = 0

    # -- metric accumulators -----------------------------------------
    metrics = engine._metrics
    warmup = engine._warmup_remaining
    lat_by = [None] * size_index
    for node in nodes:
        lat_by[node] = [0, 0.0, 0.0, inf, -inf]
    m_local = [0] * size_index
    m_group = [0] * size_index
    m_origin = [0] * size_index
    m_queries = [0] * size_index
    m_peer_bytes = [0] * size_index
    m_origin_bytes = [0] * size_index
    m_inval = [0] * size_index

    hist = metrics._latency_hist
    hist_width = hist.bin_width
    overflow_bin = hist.num_bins - 1
    bins = [0] * hist.num_bins
    hist_count = 0
    hist_sum = 0.0
    hist_min = inf
    hist_max = -inf
    # Local hits all share the constant local-processing latency; its
    # bin is the same every time (binned by the identical rule).
    local_bin = int(local_ms / hist_width)
    if local_bin >= overflow_bin:
        local_bin = overflow_bin

    # -- instrumentation ---------------------------------------------
    observer = engine._observer
    instrumented = engine._instrumented
    trace = observer.trace if instrumented else None
    sampler = observer.sampler if instrumented else None
    trace_buf: list = []
    window_local = window_group = window_origin = 0
    window_totals: list = []
    next_tick = sampler.next_tick_ms if sampler is not None else inf
    sample_gauges = engine._sample_gauges

    # -- the slice loop ----------------------------------------------
    # Each barrier slice is further split at the warm-up boundary so
    # ``counted`` is a loop constant, and iterated with one zip over
    # memoryview slices of the request columns instead of three indexed
    # loads per event.  A view yields each row's float and ints as the
    # loop reaches them, so no list of the log is ever built; doc ids
    # map through ``doc_ints``, so the heap entries and cache records
    # that requests make share one int object per document.
    #
    # A request takes one of two service paths.  A local hit keeps an
    # accounting block of its own: its latency and histogram bin are
    # constants, and folding it into the fetch path's tail made the
    # read-heavy ``sim-read`` perfbench call slower (median 1.96-2.02 s
    # against 1.86-1.91 s, three alternating runs of five calls; see
    # docs/performance.md).  Everything else (a group hit or an
    # origin fetch) takes the fetch path, which has one accounting
    # tail.
    barrier_index = 0
    req_ts_view = memoryview(req_ts_column)
    req_cache_view = memoryview(req_cache_column)
    req_doc_view = memoryview(req_doc_column)
    doc_int = doc_ints.__getitem__
    i = 0
    while True:
        hi = (
            positions[barrier_index]
            if barrier_index < num_barriers
            else total_requests
        )
        lo = i
        while lo < hi:
            if lo < warmup:
                sub_hi = hi if hi <= warmup else warmup
                counted = False
            else:
                sub_hi = hi
                counted = True
            for ts, c, d in zip(
                req_ts_view[lo:sub_hi],
                req_cache_view[lo:sub_hi],
                map(doc_int, req_doc_view[lo:sub_hi]),
            ):
                if next_tick <= ts:
                    next_tick = _flush_samples(
                        sampler, sample_gauges, ts, window_local,
                        window_group, window_origin, window_totals,
                    )
                    window_local = window_group = window_origin = 0
                    window_totals = []

                docs_c = docs_by[c]
                record = docs_c.get(d)
                if record is not None:
                    # ---- local hit ----
                    acc_c = acc_by[c]
                    accesses = acc_c[d] + 1
                    acc_c[d] = accesses
                    pver_c = pver_by[c]
                    version = pver_c[d] + 1
                    pver_c[d] = version
                    pend_c = pend_by[c]
                    if len(pend_c) >= spill_at:
                        spill_by[c].extend(chain_from(pend_c))
                        del pend_c[:]
                    pend_c.append((
                        accesses * pfc_by[c][d]
                        / (psz_by[c][d] * (1.0 + pinv_by[c][d])),
                        version,
                        d,
                    ))
                    if counted:
                        slot = lat_by[c]
                        n = slot[0] + 1
                        slot[0] = n
                        delta = local_ms - slot[1]
                        mean = slot[1] + delta / n
                        slot[1] = mean
                        slot[2] += delta * (local_ms - mean)
                        if local_ms < slot[3]:
                            slot[3] = local_ms
                        if local_ms > slot[4]:
                            slot[4] = local_ms
                        bins[local_bin] += 1
                        hist_count += 1
                        hist_sum += local_ms
                        if local_ms < hist_min:
                            hist_min = local_ms
                        if local_ms > hist_max:
                            hist_max = local_ms
                        m_local[c] += 1
                    if sampler is not None:
                        window_local += 1
                        window_totals.append(local_ms)
                    if trace is not None:
                        trace_buf.append((
                            ts, c, d, "local_hit", local_ms, 0.0, 0.0, 0.0,
                            0, 0, counted, False,
                        ))
                    continue

                # ---- fetch path: beacon lookup ----
                rtt_c = rtt_by[c]
                hit = False
                if not peers_by[c]:
                    query = 0.0
                    messages = 0
                else:
                    members = members_by[c]
                    beacon = members[(d * 2654435761) % len(members)]
                    if beacon == c:
                        query = lookup_ms + 0.0
                        messages = 0
                    else:
                        query = lookup_ms + rtt_c[beacon]
                        messages = 2
                    # Every group member is reachable, so the first-min
                    # scan runs straight over the holder set — same
                    # strict-less order as the protocol's filtered list,
                    # no allocation.
                    by_group = holders_map.get(d)
                    if by_group is not None:
                        held = by_group.get(group_by[c])
                        if held is not None:
                            best = -1
                            best_rtt = inf
                            for h in held:
                                if h != c:
                                    candidate_rtt = rtt_c[h]
                                    if candidate_rtt < best_rtt:
                                        best_rtt = candidate_rtt
                                        best = h
                            if best >= 0:
                                hit = True
                                holder = best

                size = sizes[d]
                if hit:
                    fetch = rtt_c[holder]
                    fetched_version = docs_by[holder][d][2]
                    path_value = "group_hit"
                else:
                    fetch = fetch0_by[c]
                    fetched_version = origin_version[d]
                    path_value = "origin_fetch"
                transfer = size / bandwidth
                total = local_ms + query + fetch + transfer

                # ---- placement ----
                cap_c = cap_by[c]
                if size <= cap_c:
                    acc_c = acc_by[c]
                    psz_c = psz_by[c]
                    pfc_c = pfc_by[c]
                    pver_c = pver_by[c]
                    heap_c = heap_by[c]
                    group_c = group_by[c]
                    pend_c = pend_by[c]
                    if used[c] + size > cap_c:
                        # Eviction will read the heap: flush the
                        # deferred entries first, oldest first (the
                        # policy's select_victim).
                        spill_c = spill_by[c]
                        if spill_c:
                            push_spilled(heap_c, spill_c, doc_int)
                        if pend_c:
                            for entry in pend_c:
                                heappush(heap_c, entry)
                            del pend_c[:]
                    while used[c] + size > cap_c:
                        # Lazy-heap victim selection: pop stale entries,
                        # evict the live minimum.
                        while True:
                            top = heap_c[0]
                            victim = top[2]
                            if pver_c.get(victim) == top[1]:
                                break
                            heappop(heap_c)
                        victim_record = docs_c.pop(victim)
                        used[c] -= victim_record[0]
                        del acc_c[victim]
                        del psz_c[victim]
                        del pfc_c[victim]
                        del pver_c[victim]
                        by_group = holders_map.get(victim)
                        if by_group:
                            held = by_group.get(group_c)
                            if held is not None:
                                held.discard(c)
                                if not held:
                                    del by_group[group_c]
                            if not by_group:
                                del holders_map[victim]
                    docs_c[d] = [size, ts, fetched_version]
                    used[c] += size
                    acc_c[d] = 1
                    psz_c[d] = size
                    # Re-fetch cost is at least a token cost even for
                    # free fetches (policy on_insert rule).
                    fetch_cost = fetch + transfer
                    cost = fetch_cost if fetch_cost > 0.01 else 0.01
                    pfc_c[d] = cost
                    invalidations = pinv_by[c].setdefault(d, 0)
                    version = pver_c.get(d, 0) + 1
                    pver_c[d] = version
                    if len(pend_c) >= spill_at:
                        spill_by[c].extend(chain_from(pend_c))
                        del pend_c[:]
                    pend_c.append((
                        1 * cost / (size * (1.0 + invalidations)),
                        version,
                        d,
                    ))
                    by_group = holders_map.get(d)
                    if by_group is None:
                        holders_map[d] = by_group = {}
                    held = by_group.get(group_c)
                    if held is None:
                        by_group[group_c] = held = set()
                    held.add(c)

                if counted:
                    slot = lat_by[c]
                    n = slot[0] + 1
                    slot[0] = n
                    delta = total - slot[1]
                    mean = slot[1] + delta / n
                    slot[1] = mean
                    slot[2] += delta * (total - mean)
                    if total < slot[3]:
                        slot[3] = total
                    if total > slot[4]:
                        slot[4] = total
                    bin_index = int(total / hist_width)
                    if bin_index >= overflow_bin:
                        bin_index = overflow_bin
                    bins[bin_index] += 1
                    hist_count += 1
                    hist_sum += total
                    if total < hist_min:
                        hist_min = total
                    if total > hist_max:
                        hist_max = total
                    if messages:
                        m_queries[c] += messages
                    if hit:
                        m_group[c] += 1
                        m_peer_bytes[c] += size
                    else:
                        m_origin[c] += 1
                        m_origin_bytes[c] += size
                if sampler is not None:
                    if hit:
                        window_group += 1
                    else:
                        window_origin += 1
                    window_totals.append(total)
                if trace is not None:
                    trace_buf.append((
                        ts, c, d, path_value, total, query, fetch,
                        transfer, messages, size, counted, False,
                    ))

            lo = sub_hi
        i = hi
        if barrier_index >= num_barriers:
            break

        # ---- barrier ----
        barrier_ts = barrier_times[barrier_index]
        doc = barrier_docs[barrier_index]
        barrier_index += 1
        if next_tick <= barrier_ts:
            next_tick = _flush_samples(
                sampler, sample_gauges, barrier_ts, window_local,
                window_group, window_origin, window_totals,
            )
            window_local = window_group = window_origin = 0
            window_totals = []
        if trace_buf:
            # The update appends its own trace record; flush the
            # buffered request rows first to keep JSONL order exact.
            _flush_trace(trace, trace_buf)
        # OriginServer.apply_update (same checks, same messages), then
        # the engine's invalidation fan-out, replaying
        # EdgeCache.invalidate/_remove, UtilityPolicy.
        # on_invalidation_feedback/on_remove and GroupProtocol.drop_copy
        # on the shared state.
        if not 0 <= doc < num_docs:
            raise SimulationError(
                f"unknown document {doc} (catalog size {num_docs})"
            )
        if not dynamic[doc]:
            raise SimulationError(
                f"update log targets static document {doc}"
            )
        doc_version = origin_versions.get(doc, 0) + 1
        origin_versions[doc] = doc_version
        origin_version[doc] = doc_version
        updates_applied += 1
        if instrumented:
            observer.on_origin_update(barrier_ts, doc)
        # The directory lists exactly the caches whose store holds the
        # document (every path that adds or drops a copy keeps both in
        # step), so every holder drops its copy and the whole directory
        # entry goes at once.
        by_group = holders_map.pop(doc, None)
        if by_group:
            for held in by_group.values():
                for h in held:
                    held_record = docs_by[h].pop(doc)
                    pinv_h = pinv_by[h]
                    pinv_h[doc] = pinv_h.get(doc, 0) + 1
                    left = used[h] - held_record[0]
                    used[h] = left
                    if left < 0:
                        raise SimulationError(
                            f"cache {h} accounting went negative"
                        )
                    del acc_by[h][doc]
                    del psz_by[h][doc]
                    del pfc_by[h][doc]
                    del pver_by[h][doc]
                    m_inval[h] += 1

    # -- postlude ----------------------------------------------------
    # The last event is the last barrier unless a request follows it.
    if num_barriers and positions[-1] == total_requests:
        last_ts = barrier_times[-1]
    else:
        last_ts = req_ts_column[-1].item() if total_requests else 0.0

    if trace_buf:
        _flush_trace(trace, trace_buf)
    if sampler is not None:
        # Every tick at or before the last event was flushed ahead of
        # it, so this only folds the open window in.
        _flush_samples(
            sampler, sample_gauges, last_ts, window_local, window_group,
            window_origin, window_totals,
        )
        sampler.finalize(last_ts, **sample_gauges(last_ts))

    engine._processed_requests = total_requests
    origin.absorb_updates(updates_applied)

    rows = {}
    for node in nodes:
        slot = lat_by[node]
        rows[node] = (
            slot[0], slot[1], slot[2], slot[3], slot[4],
            m_local[node], m_group[node], m_origin[node],
            m_queries[node], m_peer_bytes[node], m_origin_bytes[node],
            0, m_inval[node],  # no stale serves under invalidation
        )
    metrics.absorb_batched(
        rows,
        min(warmup, total_requests),
        (bins, hist_count, hist_sum, hist_min, hist_max),
    )
    return total_requests + num_barriers
