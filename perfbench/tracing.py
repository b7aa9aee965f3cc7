"""Span tracing of biphoton's public functions, installed from outside.

The tracer replaces each traced function with a timing wrapper in every
``biphoton`` module that binds it (``from .spectrum import time_domain``
binds ``time_domain`` in ``biphoton.cli`` too), so calls are traced no
matter which module makes them.  No file of the program changes, and
:meth:`Tracer.uninstall` restores the original bindings.

A function that a later version of biphoton no longer has is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.attr" names a class attribute.
TRACED = {
    "gaussian_pair_spectrum": ("biphoton.models", "gaussian_pair_spectrum"),
    "shih_spectrum": ("biphoton.models", "shih_spectrum"),
    "delta_pump_spectrum": ("biphoton.models", "delta_pump_spectrum"),
    "bell_antisymmetric_spectrum": ("biphoton.models", "bell_antisymmetric_spectrum"),
    "hom_dip_closed": ("biphoton.models", "hom_dip_closed"),
    "shih_exact": ("biphoton.models", "shih_exact"),
    "shih_reduced": ("biphoton.models", "shih_reduced"),
    "shih_norm_factor": ("biphoton.models", "shih_norm_factor"),
    "norm_check": ("biphoton.spectrum", "BiphotonSpectrum.__post_init__"),
    "from_array": ("biphoton.spectrum", "BiphotonSpectrum.from_array"),
    "apply_path_delays": ("biphoton.spectrum", "apply_path_delays"),
    "symmetry_decompose": ("biphoton.spectrum", "symmetry_decompose"),
    "exchange_overlap": ("biphoton.spectrum", "exchange_overlap"),
    "separability_rank1_fraction": ("biphoton.spectrum", "separability_rank1_fraction"),
    "time_domain": ("biphoton.spectrum", "time_domain"),
    "coincidence_probability": ("biphoton.beamsplitter", "coincidence_probability"),
    "transform": ("biphoton.beamsplitter", "transform"),
    "trapping_fidelity": ("biphoton.beamsplitter", "trapping_fidelity"),
    "run_scan": ("biphoton.scans", "run_scan"),
    "load_spectrum": ("biphoton.fileio", "load_spectrum"),
    "save_spectrum": ("biphoton.fileio", "save_spectrum"),
    "save_magnitude_matrix": ("biphoton.fileio", "save_magnitude_matrix"),
    "write_scan_csv": ("biphoton.fileio", "write_scan_csv"),
    "write_scan_json": ("biphoton.fileio", "write_scan_json"),
    "main": ("biphoton.cli", "main"),
}

SAMPLERS = ("gaussian_pair_spectrum", "shih_spectrum", "delta_pump_spectrum",
            "bell_antisymmetric_spectrum")
CLOSED_FORMS = ("hom_dip_closed", "shih_exact", "shih_reduced", "shih_norm_factor")
WRITERS = ("save_spectrum", "save_magnitude_matrix", "write_scan_csv", "write_scan_json")

# per-layer metric -> (kind, span names); kinds: "s" busy time of the group
# (nested spans of one group counted once), "calls", "self" own time minus
# direct children, and "count" for counters fed by the wrappers.
LAYER_METRICS = {
    "models.sample_s": ("s", SAMPLERS),
    "models.sample_calls": ("calls", SAMPLERS),
    "models.closed_form_s": ("s", CLOSED_FORMS),
    "spectrum.norm_checks": ("calls", ("norm_check",)),
    "spectrum.norm_check_s": ("s", ("norm_check",)),
    "spectrum.from_array_s": ("s", ("from_array",)),
    "spectrum.path_delays_s": ("s", ("apply_path_delays",)),
    "spectrum.path_delays_calls": ("calls", ("apply_path_delays",)),
    "spectrum.symmetry_decompose_s": ("s", ("symmetry_decompose",)),
    "spectrum.symmetry_decompose_calls": ("calls", ("symmetry_decompose",)),
    "spectrum.exchange_overlap_s": ("s", ("exchange_overlap",)),
    "spectrum.rank1_s": ("s", ("separability_rank1_fraction",)),
    "spectrum.time_domain_s": ("s", ("time_domain",)),
    "beamsplitter.coincidence_s": ("s", ("coincidence_probability",)),
    "beamsplitter.coincidence_calls": ("calls", ("coincidence_probability",)),
    "beamsplitter.transform_s": ("s", ("transform",)),
    "beamsplitter.trapping_fidelity_s": ("s", ("trapping_fidelity",)),
    "scans.run_scan_s": ("s", ("run_scan",)),
    "scans.self_s": ("self", ("run_scan",)),
    "scans.rows": ("count", ("scans.rows",)),
    "fileio.read_s": ("s", ("load_spectrum",)),
    "fileio.write_s": ("s", WRITERS),
    "fileio.bytes_written": ("count", ("fileio.bytes_written",)),
    "cli.main_s": ("s", ("main",)),
    "cli.self_s": ("self", ("main",)),
}


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["scans.rows"] += len(result.rows)


def _count_bytes(tracer, args, kwargs, result):
    path = kwargs.get("path", args[-1] if args else None)
    tracer.counters["fileio.bytes_written"] += os.path.getsize(path)


AFTER = {"run_scan": _count_rows, **{name: _count_bytes for name in WRITERS}}


class Tracer:
    """Records spans ``[name, start, end, parent]`` while installed.

    ``parent`` is the index of the enclosing span in :attr:`spans`, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "biphoton" or name.startswith("biphoton."))]
        for name, (module_name, attr) in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap(name, raw.__func__)))
                elif raw is not None:
                    self._patch(cls, method, self._wrap(name, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass value of every metric in :data:`LAYER_METRICS`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(i, group):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in group:
                    return False
                parent = spans[parent][3]
            return True

        out = {}
        for metric, (kind, group) in LAYER_METRICS.items():
            members = [i for i, span in enumerate(spans) if span[0] in group]
            if kind == "calls":
                total = float(len(members))
            elif kind == "count":
                total = float(self.counters[group[0]])
            elif kind == "self":
                total = sum(spans[i][2] - spans[i][1] - child_time[i] for i in members)
            else:
                total = sum(spans[i][2] - spans[i][1] for i in members if outermost(i, group))
            out[metric] = total / passes
        return out
