"""Layer spans for the traced benchmark run, recorded from outside the package.

Each traced function is replaced under every name it is bound to in the
loaded ``weaktunnel`` modules: ``weakval`` binds ``propagate`` at import and
``cli`` binds ``transmitted_pair``, ``scattering_amplitudes`` and the rest, so
wrapping the defining module alone would miss every call.  ``Tracer.restore``
puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, counter): the counter, when present, maps
# (args, kwargs, result) to the amount one call adds to that span's count.
TARGETS = (
    ("weaktunnel.tdse", "propagate", "tdse.propagate",
     lambda a, k, r: (a[1] if len(a) > 1 else k["cfg"]).n_steps),
    ("weaktunnel.tdse", "propagate_backward", "tdse.propagate_backward",
     lambda a, k, r: (a[1] if len(a) > 1 else k["cfg"]).n_steps),
    ("weaktunnel.core", "edge_probability", "core.edge_probability", None),
    ("weaktunnel.weakval", "transmitted_pair", "weakval.transmitted_pair", None),
    ("weaktunnel.weakval", "conditional_distribution", "weakval.conditional_distribution",
     None),
    ("weaktunnel.weakval", "conditional_dwell_time", "weakval.conditional_dwell_time", None),
    ("weaktunnel.weakval", "barrier_occupation", "weakval.barrier_occupation", None),
    ("weaktunnel.pointer", "difference_variance", "pointer.difference_variance", None),
    ("weaktunnel.pointer", "two_probe_run", "pointer.two_probe_run", None),
    ("weaktunnel.corpuscle", "corpuscularity_test", "corpuscle.corpuscularity_test",
     lambda a, k, r: r.n_resamples),
    ("weaktunnel.corpuscle", "simulate_corpuscular", "corpuscle.simulate_corpuscular", None),
    ("weaktunnel.corpuscle", "corpuscular_min_variance", "corpuscle.corpuscular_min_variance",
     None),
    ("weaktunnel.scatter", "group_delay", "scatter.group_delay", None),
    ("weaktunnel.scatter", "scattering_amplitudes", "scatter.scattering_amplitudes", None),
    ("weaktunnel.cli", "main", "cli.main", None),
)
WRITER = "cli.RunWriter"
WRITER_METHODS = {
    "write_text": lambda a, k, r: len((a[2] if len(a) > 2 else k["text"]).encode()),
    "write_json": None,
    "write_csv": None,
    "finish": lambda a, k, r: (a[0].out_dir / "manifest.json").stat().st_size,
}

PER_LAYER = {
    "tdse.legs": "count", "tdse.steps": "count", "tdse.propagate_s": "s",
    "tdse.propagate_backward_s": "s", "tdse.us_per_step": "us", "tdse.guard_checks": "count",
    "weakval.transmitted_pair_s": "s", "weakval.conditional_distribution_s": "s",
    "weakval.conditional_dwell_time_s": "s", "weakval.barrier_occupation_s": "s",
    "pointer.difference_variance_s": "s", "pointer.difference_variance_calls": "count",
    "pointer.two_probe_run_s": "s",
    "corpuscle.corpuscularity_test_s": "s", "corpuscle.resamples_per_s": "1/s",
    "corpuscle.simulate_corpuscular_s": "s", "corpuscle.corpuscular_min_variance_s": "s",
    "scatter.group_delay_s": "s", "scatter.scattering_amplitudes_calls": "count",
    "scatter.amplitudes_per_delay": "ratio",
    "cli.write_s": "s", "cli.bytes_written": "bytes", "cli.self_s": "s",
}


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus counts.

    The root span of each request is its ``cli.main`` call; every other span
    reaches it through its parents.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counts[name] += counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under each name that binds it in a weaktunnel module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "weaktunnel" or key.startswith("weaktunnel."))]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:  # a layer function later code removed
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        writer = importlib.import_module("weaktunnel.cli").RunWriter
        for method, counter in WRITER_METHODS.items():
            original = writer.__dict__.get(method)
            if original is not None:
                self._restore.append((writer, method, original))
                setattr(writer, method, self._wrap(f"{WRITER}.{method}", original, counter))

    def restore(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced iterations."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        amps_in_delay = 0
        write_s = 0.0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            parent_name = None
            if parent is not None:
                child[parent] += end - start
                parent_name = self.spans[parent][0]
            if name == "scatter.scattering_amplitudes" and parent_name == "scatter.group_delay":
                amps_in_delay += 1
            if name.startswith(WRITER) and not (parent_name or "").startswith(WRITER):
                write_s += end - start
        own: defaultdict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]

        steps = self.counts["tdse.propagate"] + self.counts["tdse.propagate_backward"]
        tdse_s = total["tdse.propagate"] + total["tdse.propagate_backward"]
        test_s = total["corpuscle.corpuscularity_test"]
        delays = calls["scatter.group_delay"]
        metrics = {
            "tdse.legs": calls["tdse.propagate"] + calls["tdse.propagate_backward"],
            "tdse.steps": steps,
            "tdse.propagate_s": total["tdse.propagate"],
            "tdse.propagate_backward_s": total["tdse.propagate_backward"],
            "tdse.guard_checks": calls["core.edge_probability"],
            "weakval.transmitted_pair_s": own["weakval.transmitted_pair"],
            "weakval.conditional_distribution_s": own["weakval.conditional_distribution"],
            "weakval.conditional_dwell_time_s": own["weakval.conditional_dwell_time"],
            "weakval.barrier_occupation_s": own["weakval.barrier_occupation"],
            "pointer.difference_variance_s": total["pointer.difference_variance"],
            "pointer.difference_variance_calls": calls["pointer.difference_variance"],
            "pointer.two_probe_run_s": own["pointer.two_probe_run"],
            "corpuscle.corpuscularity_test_s": test_s,
            "corpuscle.simulate_corpuscular_s": total["corpuscle.simulate_corpuscular"],
            "corpuscle.corpuscular_min_variance_s": total["corpuscle.corpuscular_min_variance"],
            "scatter.group_delay_s": total["scatter.group_delay"],
            "scatter.scattering_amplitudes_calls": calls["scatter.scattering_amplitudes"],
            "cli.write_s": write_s,
            "cli.bytes_written": self.counts[f"{WRITER}.write_text"]
            + self.counts[f"{WRITER}.finish"],
            "cli.self_s": own["cli.main"],
        }
        metrics = {key: value / iterations for key, value in metrics.items()}
        # ratios are taken over the whole traced run, not per iteration
        metrics["tdse.us_per_step"] = 1e6 * tdse_s / steps if steps else 0.0
        metrics["corpuscle.resamples_per_s"] = (
            self.counts["corpuscle.corpuscularity_test"] / test_s if test_s else 0.0)
        metrics["scatter.amplitudes_per_delay"] = amps_in_delay / delays if delays else 0.0
        return {key: metrics[key] for key in PER_LAYER}
