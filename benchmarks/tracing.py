"""Spans around the calls into each asyncadmm layer, recorded from outside.

Modules import their collaborators by name (``admm`` calls its own global
``diameter``, ``consensus`` its own ``broadcast``), so a function is wrapped
under every name a caller looks it up by, not only where it is defined.  A
target that no longer exists is reported as absent and simply yields no
spans: later versions of the program may delete whole layers.

Spans are kept in memory, one buffer per thread (the sweep runs its cells in
worker threads), and written out when the run ends.  Each span holds its
name, start, end, parent span and the sweep cell it belongs to.  Counts
taken from the wrapped calls' arguments and results are summed per thread
at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _graph_counts(args, kwargs, g):
    return {"digraph.edges": len(g.edges)}


def _draw_counts(args, kwargs, delays):
    return {"netsim.delay_draws": len(delays)}


def _sent_counts(args, kwargs, _):
    sender, g = args[:2]
    return {"netsim.messages": len(g.out_neighbors[sender]) + 1}  # the self copy included


def _diameter_counts(args, kwargs, d):
    return {"digraph.D": d}


def _consensus_counts(args, kwargs, res):
    g = args[0]
    return {
        "consensus.steps": res.steps,
        "consensus.checks": len(res.check_steps),
        "consensus.capped": int(not res.converged),
        "consensus.node_steps": g.n * res.steps,
    }


def _cell_label(args, kwargs):
    _, eps, tau = args
    return f"eps={eps!r},tau_bar={int(tau)}"


# (module, attribute path as the caller looks it up, span name, counts, cell)
TARGETS = (
    ("asyncadmm.digraph", "random_strongly_connected", "digraph.generate", _graph_counts, None),
    ("asyncadmm.cli", "random_strongly_connected", "digraph.generate", _graph_counts, None),
    ("asyncadmm.digraph", "diameter", "digraph.diameter", _diameter_counts, None),
    ("asyncadmm.admm", "diameter", "digraph.diameter", _diameter_counts, None),
    ("asyncadmm.consensus", "diameter", "digraph.diameter", _diameter_counts, None),
    ("asyncadmm.digraph", "build_weights", "digraph.weights", None, None),
    ("asyncadmm.admm", "build_weights", "digraph.weights", None, None),
    ("asyncadmm.consensus", "broadcast", "netsim.broadcast", _sent_counts, None),
    ("asyncadmm.netsim", "DelayModel.sample_many", "netsim.sample", _draw_counts, None),
    ("asyncadmm.netsim", "EventQueue.advance", "netsim.advance", None, None),
    ("asyncadmm.consensus", "run_terminating_consensus", "consensus.instance", _consensus_counts, None),
    ("asyncadmm.admm", "run_terminating_consensus", "consensus.instance", _consensus_counts, None),
    ("asyncadmm.admm", "run", "admm.run", lambda a, k, r: {"admm.iterations": r.iterations}, None),
    ("asyncadmm.admm", "x_update", "admm.x_update", None, None),
    ("asyncadmm.admm", "stopping_criterion", "admm.stopping_criterion", None, None),
    ("asyncadmm.problems", "LeastSquaresCost.prox", "problems.prox", None, None),
    ("asyncadmm.problems", "LeastSquaresInstance.objective", "problems.objective", None, None),
    ("asyncadmm.oracle", "exact_average", "oracle.exact_average", None, None),
    ("asyncadmm.oracle", "centralized_solution", "oracle.centralized", None, None),
    ("asyncadmm.cli", "_sweep_cell", "cli.cell", None, _cell_label),
    ("asyncadmm.cli", "sweep", "cli.sweep", None, None),
)


class _Buffer:
    """Spans and counts of one thread; parents index into the same buffer."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.name = array("i")
        self.parent = array("q")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.cell_id = -1


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.cells: list[str] = []
        self.absent: list[str] = []
        self._ids: dict[str, int] = {}
        self._cell_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _intern(self, table: dict, items: list, key: str) -> int:
        with self._lock:
            if key not in table:
                table[key] = len(items)
                items.append(key)
            return table[key]

    def _wrap(self, fn, span_name: str, counts, cell):
        name_id = self._intern(self._ids, self.names, span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            outer_cell = buf.cell_id
            if cell is not None:
                buf.cell_id = self._intern(self._cell_ids, self.cells, cell(args, kwargs))
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.cell.append(buf.cell_id)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = time.perf_counter()
                buf.stack.pop()
                buf.cell_id = outer_cell
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    buf.counts[key] = buf.counts.get(key, 0) + int(value)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore it."""
        restore = []
        try:
            for module_name, path, span_name, counts, cell in targets:
                *owner_path, attr = path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self._wrap(original, span_name, counts, cell))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        parts = {key: [] for key in ("name", "parent", "cell", "start", "end", "thread")}
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["parent"].append(parent)
            parts["cell"].append(np.frombuffer(buf.cell, dtype=np.int32))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            parts["thread"].append(np.full(len(buf.start), buf.thread_id, dtype=np.int32))
            offset += len(buf.start)
        dtypes = {"name": np.int32, "parent": np.int64, "cell": np.int32, "thread": np.int32}
        return {
            key: np.concatenate(chunks) if chunks else np.empty(0, dtype=dtypes.get(key, np.float64))
            for key, chunks in parts.items()
        }

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def write(self, path) -> int:
        """Save the spans, with their name and cell tables, as an ``.npz`` file.

        Returns the number of spans written.
        """
        spans = self.spans()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            cells=np.array(self.cells, dtype=str),
            **spans,
        )
        return len(spans["name"])


def _tail(values: np.ndarray) -> float:
    """Highest order statistic with at least ten samples beyond it.

    Below 21 samples no such statistic lies above the median, which is then
    reported instead.
    """
    ordered = np.sort(values)
    return float(ordered[-11]) if len(ordered) > 20 else float(np.median(ordered))


def _iteration_ms(spans, ids) -> np.ndarray:
    """Per-iteration wall time of every ``admm.run``, from its children's spans.

    An iteration starts with the first prox step (``admm.x_update``) and ends
    with the residual test (``admm.stopping_criterion``), which ``run`` calls
    once at the end of every iteration.
    """
    if not {"admm.run", "admm.x_update", "admm.stopping_criterion"} <= ids.keys():
        return np.empty(0)
    name, parent = spans["name"], spans["parent"]
    out = []
    for run_idx in np.nonzero(name == ids["admm.run"])[0]:
        children = parent == run_idx
        starts = spans["start"][children & (name == ids["admm.x_update"])]
        ends = spans["end"][children & (name == ids["admm.stopping_criterion"])]
        if len(starts) and len(ends):
            out.append(np.diff(np.concatenate(([starts.min()], np.sort(ends)))) * 1e3)
    return np.concatenate(out) if out else np.empty(0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    ``*_s`` is the summed duration of a layer's spans and ``self_s`` that
    duration less the time covered by child spans.  ``netsim.broadcast_s``
    is broadcast self time, so that broadcast, sampling and delivery add up
    to the whole network layer.  Spans are wall time: in the sweep's worker
    threads they include waits for the interpreter lock, which a thread
    gives up inside numpy's delay draws, so ``netsim.sample_s`` there is
    mostly such waiting and layer totals exceed the sweep's wall time.
    """
    spans = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child_time = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    def select(name):
        return spans["name"] == ids[name] if name in ids else np.zeros(len(dur), dtype=bool)

    def total(name):
        return float(dur[select(name)].sum())

    def own(name):
        return float(self_time[select(name)].sum())

    def calls(name):
        return int(select(name).sum())

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts()
    messages = counts.get("netsim.messages", 0)
    iter_ms = _iteration_ms(spans, ids)
    cell_s = dur[select("cli.cell")]
    return {
        "digraph.generate_s": total("digraph.generate"),
        "digraph.diameter_s": total("digraph.diameter"),
        "digraph.diameter_calls": calls("digraph.diameter"),
        "digraph.weights_s": total("digraph.weights"),
        "digraph.edges": ratio(counts.get("digraph.edges", 0), calls("digraph.generate")),
        "digraph.D": ratio(counts.get("digraph.D", 0), calls("digraph.diameter")),
        "netsim.messages": messages,
        "netsim.delay_draws": counts.get("netsim.delay_draws", 0),
        "netsim.broadcast_s": own("netsim.broadcast"),
        "netsim.sample_s": total("netsim.sample"),
        "netsim.advance_s": total("netsim.advance"),
        "netsim.us_per_message": ratio(
            1e6 * (total("netsim.broadcast") + total("netsim.advance")), messages
        ),
        "consensus.instances": calls("consensus.instance"),
        "consensus.steps": counts.get("consensus.steps", 0),
        "consensus.checks": counts.get("consensus.checks", 0),
        "consensus.capped": counts.get("consensus.capped", 0),
        "consensus.s": total("consensus.instance"),
        "consensus.self_s": own("consensus.instance"),
        "consensus.us_per_node_step": ratio(
            1e6 * total("consensus.instance"), counts.get("consensus.node_steps", 0)
        ),
        "consensus.us_per_message": ratio(1e6 * total("consensus.instance"), messages),
        "admm.iterations": counts.get("admm.iterations", 0),
        "admm.self_s": own("admm.run") + own("admm.x_update") + own("admm.stopping_criterion"),
        "admm.iter_ms_p50": float(np.median(iter_ms)) if len(iter_ms) else 0.0,
        "admm.iter_ms_tail": _tail(iter_ms) if len(iter_ms) else 0.0,
        "problems.prox_calls": calls("problems.prox"),
        "problems.prox_us": per_call_us("problems.prox"),
        "problems.objective_us": per_call_us("problems.objective"),
        "oracle.exact_average_us": per_call_us("oracle.exact_average"),
        "oracle.centralized_s": total("oracle.centralized"),
        "cli.cells": len(cell_s),
        "cli.cell_s_p50": float(np.median(cell_s)) if len(cell_s) else 0.0,
        "cli.cell_s_max": float(cell_s.max()) if len(cell_s) else 0.0,
        "cli.concurrency": ratio(float(cell_s.sum()), total("cli.sweep")),
    }
