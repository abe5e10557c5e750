"""Spans around hsos's public layer functions, recorded from outside the program.

`Tracer.install` replaces module attributes (multiplier.is_psd, ...) with
wrappers that record a span: name, start, end, parent span and job id, plus
counters read from the return value.  hsos calls these functions through their
modules (`mult.is_psd`, `forms.evaluate_batch`, ...), so its internal calls
are traced too; the re-exports in `hsos/__init__` are bound at import time and
bypass the wrappers, which is why the workloads call through the modules.
Spans stay in memory and are written out once, when the run ends.

`layer_metrics` turns spans into per-layer metrics: a layer's self time is its
spans' duration minus the time covered by their child spans.  Times and counts
are per job (summed over the traced jobs, divided by their number) unless the
name ends in `_max`.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict


def _pivot_bits(verdict) -> int:
    return max((max(p.numerator.bit_length(), p.denominator.bit_length()) for p in verdict.pivots or ()), default=0)


# (module, attribute, counters read from the return value)
TRACED = (
    ("multiplier", "minimal_sos_N", None),
    ("multiplier", "multiplier_matrix", lambda r, a: {"nnz": len(r.entries), "dim": r.dim}),
    ("multiplier", "is_psd", lambda r, a: {"reject": int(not r.is_psd), "pivot_bits": _pivot_bits(r)}),
    (
        "multiplier",
        "sos_decompose",
        lambda r, a: {"squares": r.num_squares(), "l_nnz": sum(len(s.coefficients) for s in r.squares)},
    ),
    ("multiplier", "verify_certificate", None),
    ("multiplier", "expand_squares", None),
    ("spheremin", "minimize_on_sphere", lambda r, a: {"starts": r.starts, "grid_points": r.grid_points}),
    ("forms", "evaluate_batch", lambda r, a: {"points": len(r)}),
    ("formats", "load_form", None),
    ("formats", "form_from_dict", None),
    ("formats", "save_certificate", lambda r, a: {"bytes": os.path.getsize(a[1])}),
    ("formats", "load_certificate", None),
    ("bounds", "bound_report", None),
    ("audit", "radial_I1", None),
    ("audit", "tail_J", None),
    ("audit", "mc_localization_check", None),
    ("audit", "empirical_h0", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.job = None
        self._saved: list[tuple] = []

    def install(self) -> None:
        import importlib

        for module_name, attr, counters in TRACED:
            module = importlib.import_module(f"hsos.{module_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn, counters))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None, "job": self.job}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                span["counters"] = counters(result, args)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer self times and counters, per job, from one run's spans."""
    own = _self_times(spans)
    total = defaultdict(float)
    count = defaultdict(float)
    peak = defaultdict(int)

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    for s, t in zip(spans, own):
        name = s["name"]
        total[name] += t
        count[name] += 1
        for key, value in s.get("counters", {}).items():
            count[f"{name}:{key}"] += value
            peak[f"{name}:{key}"] = max(peak[f"{name}:{key}"], value)
        if name == "forms.evaluate_batch" and parent_name(s) == "spheremin.minimize_on_sphere":
            total["grid"] += t
        if name == "cli.main":
            total["cli.inclusive"] += s["end"] - s["start"]

    def per_job(value: float) -> float:
        return value / jobs

    metrics = {
        "cli.main_s": per_job(total["cli.inclusive"]),
        "formats.load_form_s": per_job(total["formats.load_form"] + total["formats.form_from_dict"]
                                       - _nested_parse(spans, own)),
        "formats.certificate_io_s": per_job(total["formats.save_certificate"] + total["formats.load_certificate"]
                                            + _nested_parse(spans, own)),
        "formats.cert_bytes": per_job(count["formats.save_certificate:bytes"]),
        "multiplier.assemble_s": per_job(total["multiplier.multiplier_matrix"]),
        "multiplier.assemble_calls": per_job(count["multiplier.multiplier_matrix"]),
        "multiplier.nnz": per_job(count["multiplier.multiplier_matrix:nnz"]),
        "multiplier.dim_max": peak["multiplier.multiplier_matrix:dim"],
        "multiplier.psd_s": per_job(total["multiplier.is_psd"]),
        "multiplier.psd_calls": per_job(count["multiplier.is_psd"]),
        "multiplier.psd_rejects": per_job(count["multiplier.is_psd:reject"]),
        "multiplier.pivot_bits_max": peak["multiplier.is_psd:pivot_bits"],
        "multiplier.scan_s": per_job(total["multiplier.minimal_sos_N"]),
        "multiplier.decompose_s": per_job(total["multiplier.sos_decompose"]),
        "multiplier.squares": per_job(count["multiplier.sos_decompose:squares"]),
        "multiplier.l_nnz": per_job(count["multiplier.sos_decompose:l_nnz"]),
        "multiplier.verify_s": per_job(total["multiplier.verify_certificate"]),
        "multiplier.expand_s": per_job(total["multiplier.expand_squares"]),
        "spheremin.minimize_s": per_job(total["spheremin.minimize_on_sphere"]),
        "spheremin.minimize_calls": per_job(count["spheremin.minimize_on_sphere"]),
        "spheremin.starts": per_job(count["spheremin.minimize_on_sphere:starts"]),
        "spheremin.grid_s": per_job(total["grid"]),
        "spheremin.grid_points": per_job(count["spheremin.minimize_on_sphere:grid_points"]),
        "forms.evaluate_batch_s": per_job(total["forms.evaluate_batch"]),
        "forms.evaluate_batch_points": per_job(count["forms.evaluate_batch:points"]),
        "bounds.report_s": per_job(total["bounds.bound_report"]),
        "audit.quadrature_s": per_job(total["audit.radial_I1"] + total["audit.tail_J"]),
        "audit.mc_s": per_job(total["audit.mc_localization_check"]),
        "audit.h0_s": per_job(total["audit.empirical_h0"]),
    }
    return metrics


def _nested_parse(spans: list[dict], own: list[float]) -> float:
    """Self time of form parsing inside certificate loading (the embedded form)."""
    return sum(
        t
        for s, t in zip(spans, own)
        if s["name"] == "formats.form_from_dict"
        and s["parent"] is not None
        and spans[s["parent"]]["name"] == "formats.load_certificate"
    )


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"formats.cert_bytes": "bytes", "multiplier.pivot_bits_max": "bits"}.get(metric, "count")


IMPORT_METRICS = {"hsos.cli": "import.hsos_cli_s", "scipy.stats": "import.scipy_stats_s",
                  "scipy.integrate": "import.scipy_integrate_s"}


def import_times(src: str) -> dict[str, float]:
    """Cumulative `-X importtime` of `import hsos.cli` and of its heavy dependencies, in seconds.

    A package imported through scipy's lazy loader can miss its own line; its
    time is then the sum of its topmost submodule subtrees, which is what the
    tree walk below adds up.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hsos.cli"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    pending = defaultdict(list)  # depth -> nodes whose parent line has not come yet
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| ( *)(\S+)$", line)
        if m:
            depth = len(m.group(2)) // 2
            node = (m.group(3), int(m.group(1)) / 1e6, pending.pop(depth + 1, []))
            pending[depth].append(node)
    out = dict.fromkeys(IMPORT_METRICS.values(), 0.0)

    def walk(node, counted: frozenset):
        name, cumulative, children = node
        for package, metric in IMPORT_METRICS.items():
            if metric not in counted and (name == package or name.startswith(package + ".")):
                out[metric] += cumulative
                counted = counted | {metric}
        for child in children:
            walk(child, counted)

    for nodes in pending.values():
        for node in nodes:
            walk(node, frozenset())
    return out
