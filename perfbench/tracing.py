"""Spans recorded from outside the program, around calls into each layer.

:func:`install` replaces public functions and methods of the layers with
wrappers that record a span per call: name, start, end, the enclosing span
(per thread / asyncio task, through a context variable), the request id and
the batch id.  Spans stay in memory until the run ends.  Names imported by
name into another module are wrapped at each lookup site separately
(``extrapolate_series`` in ``core.predictor`` and ``core.time_extrapolation``,
``fit_scaling_factor`` in ``core.predictor``).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

# (span index, request id, batch id) of the innermost open span.
_CURRENT: contextvars.ContextVar[tuple[int, Any, Any]] = contextvars.ContextVar(
    "perfbench_span", default=(-1, None, None)
)

# Span record fields, in order.
NAME, START, END, PARENT, RID, BID, ATTRS = range(7)


class Recorder:
    """In-memory span store (thread-safe append)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._batch_ids = itertools.count()
        # id(PredictionRequest) -> (request object, request id): joins the
        # parsed request to the batch that serves it.
        self._request_ids: dict[int, tuple[Any, Any]] = {}

    def open(self, name: str, rid: Any = None, bid: Any = None) -> tuple[list[Any], contextvars.Token]:
        parent, parent_rid, parent_bid = _CURRENT.get()
        rid = parent_rid if rid is None else rid
        bid = parent_bid if bid is None else bid
        span = [name, time.perf_counter(), None, parent, rid, bid, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return span, _CURRENT.set((index, rid, bid))

    @staticmethod
    def close(span: list[Any], token: contextvars.Token, attrs: dict | None = None) -> None:
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        _CURRENT.reset(token)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _wrap_sync(recorder: Recorder, name: str, fn: Callable, attrs_of=None, ids_of=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid, bid = ids_of(args, kwargs) if ids_of else (None, None)
        span, token = recorder.open(name, rid, bid)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(span, token, attrs_of(args, kwargs, result) if attrs_of else None)

    return wrapper


def _wrap_async(recorder: Recorder, name: str, fn: Callable, ids_of) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        rid, bid = ids_of(args, kwargs)
        span, token = recorder.open(name, rid, bid)
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.close(span, token)

    return wrapper


def _payload_id(payload: Any) -> Any:
    return payload.get("id") if isinstance(payload, dict) else None


def install(recorder: Recorder) -> None:
    """Wrap every traced layer entry point (idempotent per process: call once)."""
    from repro.core import fastfit
    from repro.core.predictor import EstimaPredictor
    from repro.core.time_extrapolation import TimeExtrapolation
    from repro.engine import server as server_mod
    from repro.engine.cache import ContentCache
    from repro.engine.service import PredictionService
    from repro.engine.store import DiskStore
    from repro.simulation.simulator import MachineSimulator

    def patch(owner: Any, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))

    def sync(name: str, attrs_of=None, ids_of=None):
        return lambda fn: _wrap_sync(recorder, name, fn, attrs_of, ids_of)

    # engine.server: parse (request id from the payload; remembers which
    # PredictionRequest object carries which id), submit, serialize.
    parse = server_mod.parse_request

    @functools.wraps(parse)
    def parse_request(payload, base_config):
        span, token = recorder.open("server.parse", _payload_id(payload))
        try:
            request = parse(payload, base_config)
        finally:
            recorder.close(span, token)
        with recorder._lock:
            recorder._request_ids[id(request)] = (request, _payload_id(payload))
        return request

    server_mod.parse_request = parse_request
    patch(server_mod, "result_payload", sync("server.serialize"))
    patch(
        server_mod.PredictionServer,
        "submit",
        lambda fn: _wrap_async(recorder, "server.submit", fn, lambda a, k: (_payload_id(a[1]), None)),
    )

    # engine.service: one span per batch; records the request ids it serves.
    def batch_ids(args, kwargs):
        return None, next(recorder._batch_ids)

    def batch_attrs(args, kwargs, result):
        requests = list(args[1]) if len(args) > 1 else []
        with recorder._lock:
            rids = [recorder._request_ids.pop(id(r), (None, None))[1] for r in requests]
        return {"size": len(requests), "rids": rids}

    patch(PredictionService, "predict_batch", sync("service.predict_batch", batch_attrs, batch_ids))

    # engine.cache / engine.store
    def region(args, kwargs, result):
        return {"region": args[0].name, "hit": bool(result[0]) if result else False}

    patch(ContentCache, "get", sync("cache.get", region))
    patch(ContentCache, "put", sync("cache.put"))
    patch(DiskStore, "get", sync("store.get"))
    patch(DiskStore, "put", sync("store.put"))

    # core: predictor, regression (both lookup sites), fastfit, scaling factor,
    # time extrapolation; simulation.
    patch(EstimaPredictor, "predict", sync("predictor.predict"))
    for module in ("repro.core.predictor", "repro.core.time_extrapolation"):
        patch(importlib.import_module(module), "extrapolate_series", sync("regression.extrapolate"))
    patch(importlib.import_module("repro.core.predictor"), "fit_scaling_factor", sync("scaling_factor.fit"))

    def grid_cells(args, kwargs, result):
        return {"cells": len(result) if result is not None else 0}

    def screened(args, kwargs, result):
        grid = args[0] if args else kwargs.get("fitted_grid", ())
        return {
            "screened": sum(1 for fit in grid if fit is not None),
            "survivors": len(result) if result is not None else 0,
        }

    patch(fastfit, "fit_grid", sync("fastfit.fit_grid", grid_cells))
    patch(fastfit, "screen_candidates", sync("fastfit.screen", screened))
    patch(TimeExtrapolation, "predict", sync("time_extrapolation.predict"))
    patch(MachineSimulator, "sweep", sync("simulation.sweep"))


# --------------------------------------------------------------------------- #
# Reading spans back
# --------------------------------------------------------------------------- #


def load(path: Path) -> list[list[Any]]:
    return json.loads(path.read_text())


def in_window(spans: list[list[Any]], start: float, end: float) -> list[list[Any]]:
    """Finished spans that started inside ``[start, end]``."""
    return [s for s in spans if s[END] is not None and start <= s[START] <= end]


def durations(spans: list[list[Any]], name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def self_times(spans: list[list[Any]]) -> dict[str, float]:
    """Total self time per span name: each span minus what its children cover.

    ``spans`` must keep the recorder's indices (pass the unfiltered list).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[END] is not None and s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    totals: dict[str, float] = {}
    for index, s in enumerate(spans):
        if s[END] is None:
            continue
        covered, cursor = 0.0, s[START]
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, s[END])
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[s[NAME]] = totals.get(s[NAME], 0.0) + (s[END] - s[START]) - covered
    return totals
