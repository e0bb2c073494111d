"""Spans and exact work counts around sgv's public functions.

The package itself is not changed: `install` replaces module attributes
where the callers look them up (verify's imported names, module globals
used inside geometry, spectral and constants, and the scipy routines the
solvers call).  Each wrapped call is a span with a start, an end, the
span that caused it and the record it belongs to.  A span's self time is
its duration minus the time its child spans cover.  Spans stay in memory
until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict



class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, record)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.self_time = defaultdict(float)   # "row class|span" -> s
        self.record = -1
        self.row_class = ""
        self._stack = []         # [span index, seconds covered by children]

    def wrap(self, name, fn, before=None, after=None):
        """fn timed as span `name`; before may rewrite the arguments,
        after sees the result.  Both add to the counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[frame[0]] = (name, start, end, parent,
                                        self.record)
                self.self_time[f"{self.row_class}|{name}"] += (
                    end - start - frame[1])
            if after is not None:
                after(self, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_points(key):
    def before(tr, args, kwargs):
        func = args[0]

        def counted(x):
            tr.counts[key] += x.size
            return func(x)

        return (counted, *args[1:]), kwargs
    return before


def _count_calls(key):
    def before(tr, args, kwargs):
        func = args[0]

        def counted(x):
            tr.counts[key] += 1
            return func(x)

        return (counted, *args[1:]), kwargs
    return before


def _add_size(key, index):
    def before(tr, args, kwargs):
        value = args[index]
        tr.counts[key] += value if isinstance(value, int) else value.size
        return args, kwargs
    return before


def _add_bytes(tr, text):
    tr.counts["report.bytes_out"] += len(text.encode("utf-8"))


def _diameter_grid(tr, bracket):
    tr.maxima["geometry.diameter.grid_max"] = max(
        tr.maxima["geometry.diameter.grid_max"], bracket.grid)


def _dijkstra_probe(tr, fn):
    """Counts only: Dijkstra's time stays in geometry.diameter's self time."""

    @functools.wraps(fn)
    def counted(graph, *args, indices=None, **kwargs):
        sources = graph.shape[0] if indices is None else len(indices)
        tr.counts["geometry.diameter.graph_levels"] += 1
        tr.counts["geometry.diameter.dijkstra_relaxations"] += (
            graph.nnz * sources)
        tr.maxima["geometry.diameter.dist_bytes"] = max(
            tr.maxima["geometry.diameter.dist_bytes"],
            sources * graph.shape[0] * 8)
        return fn(graph, *args, indices=indices, **kwargs)

    return counted


def install(tr: Tracer):
    """Wrap every traced function of sgv (and of scipy, as sgv calls it).

    Returns a function that puts the originals back.
    """
    import scipy.linalg
    import scipy.sparse.csgraph
    import sgv.cli
    import sgv.constants
    import sgv.geometry
    import sgv.spectral
    import sgv.verify

    targets = [
        # (module, attribute, span name, before, after)
        (sgv.verify, "check_main_theorem", "verify.check_main_theorem",
         None, None),
        (sgv.verify, "check_sigma_bound", "verify.check_sigma_bound",
         None, None),
        (sgv.verify, "check_gradient_estimate",
         "verify.check_gradient_estimate", None, None),
        (sgv.verify, "make_manifold", "geometry.make_manifold", None, None),
        (sgv.verify, "diameter", "geometry.diameter", None, _diameter_grid),
        (sgv.verify, "kbar", "geometry.kbar", None, None),
        (sgv.verify, "lambda1", "spectral.lambda1", None, None),
        (sgv.verify, "schrodinger_ground", "spectral.schrodinger_ground",
         None, None),
        (sgv.verify, "delta_for_alpha", "constants.delta_for_alpha",
         None, None),
        (sgv.verify, "epsilon_max", "constants.epsilon_max", None, None),
        (sgv.verify, "gradient_constants", "constants.gradient_constants",
         None, None),
        (sgv.geometry, "ricci_min", "geometry.ricci_min",
         _add_size("geometry.ricci_min.points", 1), None),
        (sgv.geometry, "adaptive_panels", "quadrature.adaptive_panels",
         _count_points("quadrature.adaptive_panels.integrand_points"),
         None),
        (sgv.geometry, "sign_change_points",
         "quadrature.sign_change_points",
         _count_calls("quadrature.sign_change_points.func_calls"), None),
        (sgv.spectral, "assemble", "spectral.assemble",
         _add_size("spectral.assemble.cells", 2), None),
        (scipy.linalg, "solve_banded", "spectral.banded_solve", None, None),
        (scipy.linalg, "eigh_tridiagonal", "spectral.eigh_tridiagonal",
         None, None),
        (sgv.constants, "gradient_constants",
         "constants.gradient_constants", None, None),
        (sgv.constants, "epsilon_max", "constants.epsilon_max", None, None),
        (sgv.constants, "moser_constant", "constants.moser_constant",
         None, None),
        (sgv.constants, "z_sup", "modelode.z_sup", None, None),
        (sgv.cli, "main", "cli.main", None, None),
        (sgv.cli, "sweep", "verify.sweep", None, None),
        (sgv.cli, "to_json", "report.to_json", None, _add_bytes),
        (sgv.cli, "records_to_csv", "report.records_to_csv", None,
         _add_bytes),
    ]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in targets]
    originals.append((scipy.sparse.csgraph, "dijkstra",
                      scipy.sparse.csgraph.dijkstra))
    for module, attr, name, before, after in targets:
        setattr(module, attr,
                tr.wrap(name, getattr(module, attr), before, after))
    scipy.sparse.csgraph.dijkstra = _dijkstra_probe(
        tr, scipy.sparse.csgraph.dijkstra)

    def uninstall():
        for module, attr, original in originals:
            setattr(module, attr, original)

    return uninstall
