"""In-memory span tracer for the benchmark's traced run.

`Tracer.installed()` replaces the public functions and methods that the
devdan modules call on each other with timing wrappers, in every devdan
module namespace that holds them, and puts the originals back on exit. The
wrappers never touch arguments or results, so the model ends in the same
state with tracing on or off (the benchmark checks this by `state_hash`).

Spans at batch level and above (runs, batches, I/O, checkpoints, CLI
commands) are kept one by one. Per-sample spans (steps, monitors, layer
kernels, nonlinearities) are aggregated per enclosing batch-level span, so
memory stays bounded on long streams. A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import time

from devdan import checkpoint, cli, dae, model, monitors, numerics, prequential, streams

_MODULES = (numerics, dae, monitors, model, streams, prequential, checkpoint, cli)


def _observe_step(tracer, result, args):
    """Count structural events from a StepReport; edit steps get their own name."""
    c = tracer.counters
    c["steps"] += 1
    c["width_sum"] += result.width_after
    c["final_width"] = result.width_after
    if result.grew or result.pruned:
        c["grows"] += result.grew
        c["prunes"] += result.pruned
        return "model.edit_step"
    return None


def _observe_train(tracer, result, args):
    tracer.counters["rows_trained"] += len(args[1].features)


def _observe_predict(tracer, result, args):
    tracer.counters["rows_predicted"] += len(args[1])


# (owner, attribute, span name, kept one by one?)
_FUNCTIONS = (
    (numerics, "sigmoid", "numerics.sigmoid", False),
    (numerics, "softmax_row", "numerics.softmax", False),
    (dae, "mask_input", "dae.mask", False),
    (dae, "generative_gradients", "dae.grad", False),
    (dae, "sgd_step_generative", "dae.sgd", False),
    (dae, "grow_node_generative", "dae.edit", False),
    (dae, "grow_node_xavier", "dae.edit", False),
    (dae, "prune_node", "dae.edit", False),
    (monitors, "ns_snapshot_generative", "monitors.snapshot_gen", False),
    (monitors, "ns_snapshot_discriminative", "monitors.snapshot_disc", False),
    (monitors, "should_grow", "monitors.chart", False),
    (monitors, "should_prune", "monitors.chart", False),
    (monitors, "weakest_node", "monitors.weakest", False),
    (streams, "materialize", "streams.materialize", True),
    (streams, "load_csv", "streams.load_csv", True),
    (prequential, "run_prequential", "prequential.run_prequential", True),
    (prequential, "run_single", "prequential.run_single", True),
    (prequential, "run_suite", "prequential.run_suite", True),
    (prequential, "write_batch_csv", "prequential.write", True),
    (prequential, "write_summary_json", "prequential.write", True),
    (checkpoint, "save_checkpoint", "checkpoint.save", True),
    (checkpoint, "load_checkpoint", "checkpoint.load", True),
    (checkpoint, "state_hash", "checkpoint.state_hash", True),
    (cli, "main", "cli.main", True),
    (cli, "cmd_run", "cli.run", True),
    (cli, "cmd_inspect", "cli.inspect", True),
)

# (class, method, span name, kept one by one?, observer of the result)
_METHODS = (
    (monitors.NodeStats, "update", "monitors.node_stats", False, None),
    (monitors.SpcTracker, "update", "monitors.chart", False, None),
    (monitors.SpcTracker, "reset_min", "monitors.chart", False, None),
    (model.DevdanModel, "generative_step", "model.gen_step", False, _observe_step),
    (model.DevdanModel, "discriminative_step", "model.disc_step", False, _observe_step),
    (model.DevdanModel, "train_batch", "model.train_batch", True, _observe_train),
    (model.DevdanModel, "predict_batch", "model.predict_batch", True, _observe_predict),
)


class Tracer:
    """Spans of one traced run, kept in memory until `document()`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans = []        # (id, parent id, name, start, end, self seconds)
        self.aggregates = {}   # (parent id, name) -> [calls, total seconds, self seconds]
        self.counters = {k: 0 for k in (
            "steps", "width_sum", "final_width", "grows", "prunes",
            "rows_trained", "rows_predicted",
        )}
        # open frames: [name, start, child seconds, own id, id its children
        # aggregate under, parent id]
        self._stack = []
        self._next_id = 0

    # ---------------------------------------------------------------- spans

    def _enter(self, name, batch_level):
        stack = self._stack
        parent_id = stack[-1][4] if stack else 0
        span_id = None
        if batch_level:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, 0.0, 0.0, span_id, span_id if batch_level else parent_id, parent_id]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame, alias=None):
        end = time.perf_counter()
        name, start, child, span_id, _, parent_id = frame
        dur = end - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += dur
        if span_id is not None:
            self.spans.append((span_id, parent_id, name, start, end, dur - child))
            return
        for key in (name, alias) if alias else (name,):
            agg = self.aggregates.get((parent_id, key))
            if agg is None:
                agg = self.aggregates[(parent_id, key)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child

    def _wrap(self, fn, name, batch_level, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, batch_level)
            alias = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    alias = observe(tracer, result, args)
                return result
            finally:
                tracer._exit(frame, alias)

        return traced

    def _wrap_batchify(self, fn):
        """batchify is a generator: time each batch it yields, not the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._enter("streams.batchify", True)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame)
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced callables for the duration of the block."""
        undo = []
        try:
            wrappers = [
                (getattr(owner, attr), self._wrap(getattr(owner, attr), name, level))
                for owner, attr, name, level in _FUNCTIONS
                if hasattr(owner, attr)  # a callable renamed or removed loses its span
            ]
            wrappers.append((streams.batchify, self._wrap_batchify(streams.batchify)))
            for fn, wrapper in wrappers:
                for module in _MODULES:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            undo.append((module, key, fn))
            for cls, attr, name, level, observe in _METHODS:
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                setattr(cls, attr, self._wrap(original, name, level, observe))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -------------------------------------------------------------- results

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds) over the whole run."""
        out = {}
        for _, _, name, start, end, self_s in self.spans:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_s
        for (_, name), (calls, total, self_s) in self.aggregates.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def document(self, fingerprint: dict) -> dict:
        """Everything recorded, with times relative to the tracer's creation."""
        o = self.origin
        return {
            "run_id": self.run_id,
            "fingerprint": fingerprint,
            "counters": self.counters,
            "spans": [
                {"run": self.run_id, "id": sid, "parent": pid, "name": name,
                 "start": start - o, "end": end - o, "self": self_s}
                for sid, pid, name, start, end, self_s in self.spans
            ],
            "aggregates": [
                {"run": self.run_id, "parent": pid, "name": name,
                 "calls": calls, "total": total, "self": self_s}
                for (pid, name), (calls, total, self_s) in self.aggregates.items()
            ],
        }
