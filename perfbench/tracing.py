"""Per-layer tracing installed from outside the package.

The tracer replaces public functions of the ``dpencil`` modules with
wrappers and puts the originals back on ``uninstall``.  The package binds
functions with ``from .x import f``, so every loaded ``dpencil`` module
whose attribute *is* the original function gets the wrapper: a call from
``pencil``, ``dcurve`` or ``mesh`` is counted like a call from inside
``frenet``.

Stage functions (one call per command or stage) record spans: name, start,
end, parent span and command.  Per-point functions (thousands of calls per
command) record only a call count and their summed inclusive wall time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.counts = defaultdict(float)  # named quantities: vertices, bytes, ...
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._command = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "command": self._command,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        self.busy[span["name"]] += span["end"] - span["start"]
        self.calls[span["name"]] += 1

    def command(self, name: str, fn, *args):
        """Run one CLI command inside a root span ``cli.<name>``."""
        self._command += 1
        span = self._open(f"cli.{name}")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def self_time(self) -> float:
        """Time in command spans not covered by their direct child spans."""
        children = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - children[s["id"]]
                   for s in self.spans if s["parent"] is None)

    # -- wrappers ----------------------------------------------------------

    def _stage(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            frenet_before = self.calls["frenet.frenet_at"]
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, self.calls["frenet.frenet_at"] - frenet_before)
                return result
            finally:
                self._close(span)
        return wrapper

    def _point(self, name: str, fn, errors=(), error_name=None):
        calls, busy, counts = self.calls, self.busy, self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[error_name] += 1
                raise
            finally:
                busy[name] += perf_counter() - start
                calls[name] += 1
        return wrapper

    def _frame(self, fn):
        calls, busy, counts = self.calls, self.busy, self.counts

        def wrapper(pencil, s):
            start = perf_counter()
            before = calls["frenet.frenet_at"]
            result = fn(pencil, s)  # a raising lookup counts as a miss
            if calls["frenet.frenet_at"] == before:
                counts["pencil.frame.hits"] += 1
            busy["pencil.frame"] += perf_counter() - start
            calls["pencil.frame"] += 1
            return result
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> int:
        replaced = 0
        for name, module in list(sys.modules.items()):
            if name != "dpencil" and not name.startswith("dpencil."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"tracing target {original!r} is bound nowhere")
        return replaced

    def _replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- stage hooks -------------------------------------------------------

    def _after_grid(self, mesh, args, _frenet):
        self.counts["mesh.grid.vertices"] += mesh.ns * mesh.nt
        self.counts["mesh.grid.defects"] += len(mesh.defects)

    def _after_verify(self, report, args, _frenet):
        self.counts["dcurve.verify.samples"] += len(report.samples) + len(report.skipped)
        self.counts["dcurve.verify.skipped"] += len(report.skipped)

    def _after_feasible(self, intervals, args, frenet):
        self.counts["dcurve.feasible.frenet_calls"] += frenet

    def _after_synthesize(self, marching, args, frenet):
        nodes = getattr(marching.form, "nodes", None)
        if nodes is not None:  # tabulated: yield = kept nodes per Frenet call
            self.counts["dcurve.synthesize.table_nodes"] += len(nodes)
            self.counts["dcurve.synthesize.table_frenet_calls"] += frenet

    def _write_obj(self, fn):
        stage = self._stage("mesh.write_obj", fn)

        def wrapper(mesh, sink):
            before = sink.tell()
            stage(mesh, sink)
            self.counts["mesh.write_obj.bytes"] += sink.tell() - before
        return wrapper

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        from dpencil import dcurve, errors, expr, frenet, mesh, pencil, scene

        undefined = (errors.InflectionPointError, errors.IrregularCurveError)
        domain = (errors.DomainError,)
        everywhere = (
            (expr.evaluate_jet3, self._point("expr.jet_eval", expr.evaluate_jet3,
                                             domain, "expr.domain_errors")),
            (expr.evaluate, self._point("expr.real_eval", expr.evaluate,
                                        domain, "expr.domain_errors")),
            (expr.parse_expression, self._point("expr.parse", expr.parse_expression)),
            (frenet.frenet_at, self._point("frenet.frenet_at", frenet.frenet_at,
                                           undefined, "frenet.frenet_at.undefined")),
            (frenet.classify_curve, self._stage("frenet.classify", frenet.classify_curve)),
            (pencil.marching_values, self._point("pencil.marching_values",
                                                 pencil.marching_values)),
            (mesh.sample_grid, self._stage("mesh.grid", mesh.sample_grid, self._after_grid)),
            (mesh.write_obj, self._write_obj(mesh.write_obj)),
            (mesh.write_report_csv, self._stage("mesh.write_csv", mesh.write_report_csv)),
            (dcurve.verify_dtype, self._stage("dcurve.verify", dcurve.verify_dtype,
                                              self._after_verify)),
            (dcurve.feasible_domain, self._stage("dcurve.feasible", dcurve.feasible_domain,
                                                 self._after_feasible)),
            (dcurve.synthesize_marching_scale,
             self._stage("dcurve.synthesize", dcurve.synthesize_marching_scale,
                         self._after_synthesize)),
        )
        try:
            for original, wrapper in everywhere:
                self._replace_everywhere(original, wrapper)
            tab = pencil.TabulatedProductForm
            for attr in ("v_coefficient", "w_coefficient"):
                self._replace_attr(tab, attr, self._point("pencil.spline_eval", getattr(tab, attr)))
            sp = pencil.SurfacePencil
            self._replace_attr(sp, "frame", self._frame(sp.frame))
            self._replace_attr(sp, "__init__", self._stage("pencil.init", sp.__init__))
            cfg = scene.SceneConfig
            self._replace_attr(cfg, "from_dict", classmethod(
                self._stage("scene.load", cfg.__dict__["from_dict"].__func__)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
