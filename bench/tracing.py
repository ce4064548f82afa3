"""In-process tracer for one fedfilm CLI call.

Run as ``python3 bench/tracing.py TRACE.json <fedfilm cli args...>`` with
``src`` on ``PYTHONPATH``. It wraps the public functions of every fedfilm
module, runs ``fedfilm.cli.main`` on the remaining arguments, writes the
per-function statistics to ``TRACE.json`` and exits with the CLI's exit code.

Each function is wrapped in every fedfilm module namespace that binds it (a
function imported by name into ``cli`` or ``federation`` is the same object
as the one in its home module), and methods are wrapped on their class. For
each wrapped function the trace records the call count, the inclusive time
and the self time, which excludes time spent in wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer-qualified name -> (module, attribute path). Some are not reported on
# their own (io.load_embeddings, io.load_adapter, io.save_metadata,
# io.save_ground_truth); wrapping them keeps their time out of the self time
# of their callers.
TRACED = {
    "cli.main": ("fedfilm.cli", "main"),
    "io.load_embedding_matrix": ("fedfilm.io", "load_embedding_matrix"),
    "io.load_metadata": ("fedfilm.io", "load_metadata"),
    "io.load_embeddings": ("fedfilm.io", "load_embeddings"),
    "io.load_adapter": ("fedfilm.io", "load_adapter"),
    "io.save_embeddings": ("fedfilm.io", "save_embeddings"),
    "io.save_metadata": ("fedfilm.io", "save_metadata"),
    "io.save_adapter": ("fedfilm.io", "save_adapter"),
    "io.save_training_log": ("fedfilm.io", "save_training_log"),
    "io.save_report": ("fedfilm.io", "save_report"),
    "io.save_ground_truth": ("fedfilm.io", "save_ground_truth"),
    "core.apply_adapter": ("fedfilm.core", "apply_adapter"),
    "core.batch_row_indices": ("fedfilm.core", "batch_row_indices"),
    "core.CellMetadata.batches_for": ("fedfilm.core", "CellMetadata.batches_for"),
    "core.CellMetadata.restricted_to": ("fedfilm.core", "CellMetadata.restricted_to"),
    "core.EmbeddingMatrix.subset": ("fedfilm.core", "EmbeddingMatrix.subset"),
    "objective.make_client_state": ("fedfilm.objective", "make_client_state"),
    "objective.client_local_update": ("fedfilm.objective", "client_local_update"),
    "objective.local_gradient": ("fedfilm.objective", "local_gradient"),
    "objective.local_loss": ("fedfilm.objective", "local_loss"),
    "federation.run_federated_fit": ("fedfilm.federation", "run_federated_fit"),
    "federation.aggregate": ("fedfilm.federation", "aggregate"),
    "federation.run_scenario": ("fedfilm.federation", "run_scenario"),
    "metrics.evaluate": ("fedfilm.metrics", "evaluate"),
    "metrics.build_neighbor_graph": ("fedfilm.metrics", "build_neighbor_graph"),
    "metrics.kmeans": ("fedfilm.metrics", "kmeans"),
    "metrics.nmi": ("fedfilm.metrics", "nmi"),
    "metrics.ari": ("fedfilm.metrics", "ari"),
    "metrics.silhouette_samples": ("fedfilm.metrics", "silhouette_samples"),
    "metrics.silhouette_label_asw": ("fedfilm.metrics", "silhouette_label_asw"),
    "metrics.silhouette_batch_asw": ("fedfilm.metrics", "silhouette_batch_asw"),
    "metrics.lisi": ("fedfilm.metrics", "lisi"),
    "metrics.kbet_per_label": ("fedfilm.metrics", "kbet_per_label"),
    "metrics.chi2_sf": ("fedfilm.metrics", "chi2_sf"),
    "metrics.graph_connectivity": ("fedfilm.metrics", "graph_connectivity"),
    "metrics.pcr_score": ("fedfilm.metrics", "pcr_score"),
    "metrics.isolated_label_f1": ("fedfilm.metrics", "isolated_label_f1"),
    "synth.generate": ("fedfilm.synth", "generate"),
}

# io loaders whose first argument is the path of the file they read
READERS = ("io.load_embedding_matrix", "io.load_metadata", "io.load_adapter")
# metrics whose first argument is the n x d matrix of a full pairwise sweep
DISTANCE_SWEEPS = ("metrics.build_neighbor_graph", "metrics.silhouette_samples")


class Tracer:
    """Call counts, inclusive and self times per wrapped function, plus the
    argument-derived counters ``io.bytes_read`` and ``metrics.dist_entries``."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters = {"io.bytes_read": 0, "metrics.dist_entries": 0}
        self._children: list[float] = []  # wrapped-callee time per open call

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in READERS:
                counters["io.bytes_read"] += os.path.getsize(args[0])
            elif name in DISTANCE_SWEEPS:
                counters["metrics.dist_entries"] += len(args[0]) ** 2
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children.pop()
                if children:
                    children[-1] += dt

        return wrapper

    def install(self):
        """Wrap every function of TRACED wherever a fedfilm module binds it."""
        modules = [importlib.import_module(m) for m in sorted({m for m, _ in TRACED.values()})]
        modules.append(importlib.import_module("fedfilm"))
        for name, (module, attr) in TRACED.items():
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            if path:  # a method: its class is shared by every namespace
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        return {
            "functions": {name: {"calls": c, "s": s, "self_s": self_s}
                          for name, (c, s, self_s) in self.stats.items()},
            "counters": dict(self.counters),
        }


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    import fedfilm.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = fedfilm.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
