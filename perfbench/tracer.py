"""Spans around the calls into each ``cellsched`` module, recorded from outside.

``Tracer.install`` replaces each traced function in every ``cellsched``
module that binds its name (``harness``, ``powernet`` and ``schednet``
import several functions by name, so patching only the defining module
would miss their calls). Spans stay in memory as parallel lists and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs that get a span; the layer is the module name.
TRACED = (
    ("topo", "generate_topology"),
    ("linkmodel", "enumerate_schedules"),
    ("linkmodel", "build_link_problem"),
    ("linkmodel", "evaluate"),
    ("linkmodel", "evaluate_stacked"),
    ("gp", "wsr_maximize"),
    ("gp", "inner_solve"),
    ("gp", "uncapped_wsr_bps"),
    ("nncore", "forward"),
    ("nncore", "backward"),
    ("nncore", "train"),
    ("powernet", "make_power_dataset"),
    ("powernet", "predict_fractions"),
    ("schednet", "encode_topology"),
    ("schednet", "schedule_wsr_targets"),
    ("schednet", "make_sched_dataset"),
    ("harness", "run_method"),
)

# Methods that run on every workload; Exhaustive-GP runs on desk-pipeline only.
METHOD_KEYS = {"Max-DNN": "max_dnn", "DQN-GP": "dqn_gp", "DQN-DNN-5": "dqn_dnn_5"}


def _span_name(qualname: str, args, result) -> tuple[str, int, float, float]:
    """Span name (with its tag), rows, and two numeric attributes."""
    if qualname == "nncore.forward":
        inputs = args[1]  # only the schedule net has an "h" block
        tag = "sched" if "h" in inputs else "power"
        x = next(iter(inputs.values()))
        return f"{qualname}.{tag}", 1 if np.ndim(x) == 1 else len(x), 0.0, 0.0
    if qualname == "powernet.predict_fractions":
        return qualname, len(args[1]), 0.0, 0.0
    if qualname == "gp.wsr_maximize":
        return qualname, 1, float(result.outer_iters), float(not result.converged)
    if qualname == "harness.run_method":
        method = args[0]
        return f"{qualname}.{method.label}", 1, float(result.time_s), 0.0
    return qualname, 1, 0.0, 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.rows: list[int] = []
        self.attr_a: list[float] = []
        self.attr_b: list[float] = []
        self.recording = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.names.append(qualname)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.rows.append(1)
            self.attr_a.append(0.0)
            self.attr_b.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            self.names[i], self.rows[i], self.attr_a[i], self.attr_b[i] = _span_name(
                qualname, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cellsched" or name.startswith("cellsched."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"cellsched.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "names": np.asarray(names),
            "name_id": np.asarray([index[n] for n in self.names], dtype=np.int64),
            "start": start, "end": end, "parent": parent,
            "self": dur - child, "rows": np.asarray(self.rows, dtype=np.int64),
            "attr_a": np.asarray(self.attr_a), "attr_b": np.asarray(self.attr_b),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as (value, unit)."""
        a = self.arrays()
        dur = a["end"] - a["start"]

        def sel(name: str) -> np.ndarray:
            hits = np.nonzero(a["names"] == name)[0]
            return a["name_id"] == hits[0] if hits.size else np.zeros(dur.size, bool)

        def per_call(name, scale):
            m = sel(name)
            return float(dur[m].sum() / max(m.sum(), 1) * scale)

        def self_per_call(name, scale):
            m = sel(name)
            return float(a["self"][m].sum() / max(m.sum(), 1) * scale)

        def calls(name):
            return float(sel(name).sum())

        out = {
            "topo.generate_topology.ms_per_call": (per_call("topo.generate_topology", 1e3), "ms"),
            "linkmodel.enumerate_schedules.ms_per_call": (per_call("linkmodel.enumerate_schedules", 1e3), "ms"),
            "linkmodel.build_link_problem.calls": (calls("linkmodel.build_link_problem"), "count"),
            "linkmodel.build_link_problem.us_per_call": (per_call("linkmodel.build_link_problem", 1e6), "us"),
            "linkmodel.evaluate.calls": (calls("linkmodel.evaluate"), "count"),
            "linkmodel.evaluate.us_per_call": (per_call("linkmodel.evaluate", 1e6), "us"),
            "linkmodel.evaluate_stacked.ms_per_call": (per_call("linkmodel.evaluate_stacked", 1e3), "ms"),
            "gp.wsr_maximize.calls": (calls("gp.wsr_maximize"), "count"),
            "gp.wsr_maximize.ms_per_call": (per_call("gp.wsr_maximize", 1e3), "ms"),
            "gp.inner_solve.calls": (calls("gp.inner_solve"), "count"),
            "gp.inner_solve.self_ms": (self_per_call("gp.inner_solve", 1e3), "ms"),
            "gp.uncapped_wsr_bps.calls": (calls("gp.uncapped_wsr_bps"), "count"),
            "nncore.forward.sched.ms_per_call": (per_call("nncore.forward.sched", 1e3), "ms"),
            "nncore.forward.power.calls": (calls("nncore.forward.power"), "count"),
            "nncore.backward.calls": (calls("nncore.backward"), "count"),
            "nncore.backward.ms_per_call": (per_call("nncore.backward", 1e3), "ms"),
            "nncore.train.self_ms": (self_per_call("nncore.train", 1e3), "ms"),
            "powernet.make_power_dataset.self_ms": (self_per_call("powernet.make_power_dataset", 1e3), "ms"),
            "schednet.encode_topology.us_per_call": (per_call("schednet.encode_topology", 1e6), "us"),
            "schednet.schedule_wsr_targets.ms_per_call": (per_call("schednet.schedule_wsr_targets", 1e3), "ms"),
            "schednet.schedule_wsr_targets.self_ms": (self_per_call("schednet.schedule_wsr_targets", 1e3), "ms"),
            "schednet.make_sched_dataset.self_ms": (self_per_call("schednet.make_sched_dataset", 1e3), "ms"),
        }
        gp = sel("gp.wsr_maximize")
        out["gp.wsr_maximize.outer_iters_mean"] = (float(a["attr_a"][gp].mean()) if gp.any() else 0.0, "count")
        out["gp.wsr_maximize.not_converged"] = (float(a["attr_b"][gp].sum()), "count")
        fp = sel("nncore.forward.power")
        rows = float(a["rows"][fp].sum())
        out["nncore.forward.power.rows"] = (rows, "count")
        out["nncore.forward.power.us_per_row"] = (float(dur[fp].sum() / max(rows, 1) * 1e6), "us")
        pf = sel("powernet.predict_fractions")
        pf_rows = float(a["rows"][pf].sum())
        out["powernet.predict_fractions.rows"] = (pf_rows, "count")
        out["powernet.predict_fractions.self_us_per_row"] = (
            float(a["self"][pf].sum() / max(pf_rows, 1) * 1e6), "us")
        for label, key in METHOD_KEYS.items():
            name = f"harness.run_method.{label}"
            m = sel(name)
            out[f"harness.run_method.{key}.self_ms"] = (self_per_call(name, 1e3), "ms")
            out[f"harness.run_method.{key}.untimed_ms"] = (
                float((dur[m] - a["attr_a"][m]).sum() / max(m.sum(), 1) * 1e3), "ms")
        return out
