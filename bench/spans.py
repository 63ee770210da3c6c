"""Span tracing for one benchmark child process.

The tracer wraps the public entry points of each layer module at the name its
callers look up, so ``src/`` stays untouched: ``solve`` is rebound in
``extend`` and ``steer`` by ``from .solver import solve``, and ``run_query``
and ``mle_reconstruct`` reach ``build_program`` and
``mle_reconstruct_with_history`` through module globals.  Spans live in
memory as ``[name, start, end, parent, attrs]`` and are handed to the parent
process when the command returns; :func:`layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "solver", "extend", "steer", "tomo", "certify")


def _solve_attrs(args, kwargs, sol):
    prog = args[0] if args else kwargs["prog"]
    psd = [bl.n for bl in prog.blocks if bl.kind == "psd"]
    return {"iters": int(sol.iterations), "status": sol.status, "psd_n": max(psd, default=0)}


def _restarts_attrs(fn):
    signature = inspect.signature(fn)

    def attrs(args, kwargs, _out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"restarts": int(bound.arguments["restarts"])}

    return attrs


def _mle_attrs(_args, _kwargs, out):
    return {"iters": len(out[1]) - 1}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span named ``name``; ``attrs`` maps the call to span counts."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def install(self) -> None:
        """Rebind every traced entry point in the modules that call it."""
        from wernerlab import certify, extend, solver, steer, tomo

        points = [
            (solver, "solve", (solver, extend, steer), _solve_attrs),
            (solver, "presolve", (solver,), None),
            (extend, "run_query", (extend,), None),
            (extend, "build_program", (extend,), None),
            (steer, "sr_state_lower_bound", (steer,), _restarts_attrs(steer.sr_state_lower_bound)),
            (steer, "sr_solve", (steer,), None),
            (steer, "assemblage_from", (steer,), None),
            (steer, "seesaw_bell", (steer,), None),
            (tomo, "simulate_counts", (tomo,), None),
            (tomo, "mle_reconstruct_with_history", (tomo,), _mle_attrs),
            (tomo, "bootstrap_error", (tomo,), None),
        ]
        for fname in (
            "ppt_min_eig",
            "one_distillable",
            "fef",
            "fef2_exact",
            "chsh_horodecki",
            "dense_coding_delta",
            "gurvits_ball",
            "dc_threshold",
        ):
            points.append((certify, fname, (certify,), None))
        for home, fname, callers, attrs in points:
            layer = home.__name__.rsplit(".", 1)[-1]
            traced = self.wrap(f"{layer}.{fname}", getattr(home, fname), attrs)
            for module in callers:
                setattr(module, fname, traced)


def _dur(span) -> float:
    return span[2] - span[1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and busy/self times of one traced command.

    Span 0 is the ``cli.main`` root.  A span's self time is its duration minus
    that of its direct children; a layer's self time sums its spans' self times.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += _dur(span)
    by_name: dict[str, list] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(span)
        self_s[span[0].split(".", 1)[0]] += _dur(span) - child_time[i]

    def spans_of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_dur(s) for s in spans_of(name))

    def ratio(num, den):
        return num / den if den else 0.0

    solves = spans_of("solver.solve")
    busy = total("solver.solve")
    iters = sum(s[4]["iters"] for s in solves)
    sr_solves = len(spans_of("steer.sr_solve"))
    restarts = sum(s[4]["restarts"] for s in spans_of("steer.sr_state_lower_bound"))
    mles = spans_of("tomo.mle_reconstruct_with_history")

    def outside_certify(span):
        parent = span[3]
        while parent >= 0:
            if spans[parent][0].startswith("certify."):
                return False
            parent = spans[parent][3]
        return True

    out = {
        "solver.calls": len(solves),
        "solver.busy_s": busy,
        "solver.presolve_s": total("solver.presolve"),
        "solver.iters": iters,
        "solver.iters_per_call": ratio(iters, len(solves)),
        "solver.ms_per_iter": 1e3 * ratio(busy, iters),
        "solver.max_psd_n": max((s[4]["psd_n"] for s in solves), default=0),
        "solver.not_optimal": sum(s[4]["status"] != "OPTIMAL" for s in solves),
        "extend.queries": len(spans_of("extend.run_query")),
        "extend.build_s": total("extend.build_program"),
        "extend.query_s": total("extend.run_query"),
        "steer.sr_solves": sr_solves,
        "steer.solves_per_restart": ratio(sr_solves, restarts),
        "steer.sr_solve_s": total("steer.sr_solve"),
        "steer.assemblage_s": total("steer.assemblage_from"),
        "steer.sr_bound_s": total("steer.sr_state_lower_bound"),
        "steer.seesaw_bell_s": total("steer.seesaw_bell"),
        "certify.fef_s": total("certify.fef"),
        "certify.distill_s": total("certify.one_distillable"),
        "certify.busy_s": sum(
            _dur(s) for s in spans if s[0].startswith("certify.") and outside_certify(s)
        ),
        "tomo.mle_calls": len(mles),
        "tomo.mle_iters": sum(s[4]["iters"] for s in mles),
        "tomo.mle_s": total("tomo.mle_reconstruct_with_history"),
        "tomo.bootstrap_s": total("tomo.bootstrap_error"),
        "tomo.simulate_s": total("tomo.simulate_counts"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
