"""Per-layer spans for a traced pass, recorded from outside the program.

`Tracer.install()` wraps beattylab's public functions after import: each
wrapped name is replaced in every beattylab module that bound it, and
`QuadraticReal` / `PartitionSpec.term` methods are replaced at class
level.  Calls are aggregated per (span, parent span) as
[calls, inclusive ns, ns spent in child spans], never stored one by one,
so a pass making millions of field operations stays small.  A span's
self time is its inclusive time minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("qfield", "wythoff", "partition", "three_set", "identities", "cli")
ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.records = 0
        self._stack = [[ROOT, 0]]
        self._wrapped: dict[object, object] = {}

    def wrap(self, name: str, fn):
        stats = self.stats
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                stack.pop()
                parent[1] += elapsed
                entry = stats.get((name, parent[0]))
                if entry is None:
                    stats[(name, parent[0])] = [1, elapsed, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += frame[1]

        return traced

    def _counting_records(self, fn):
        @functools.wraps(fn)
        def checker(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.records += len(out)
            return out

        return checker

    def _patch_function(self, name: str, fn, modules) -> None:
        wrapped = self.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def _patch_methods(self, layer: str, cls, names=None) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value) or (names is not None and attr not in names):
                continue
            if names is None and attr.startswith("_") and not attr.endswith("__"):
                continue  # private helpers count toward the method that calls them
            if value not in self._wrapped:  # aliases such as __radd__ share one span
                span = f"{layer}.QuadraticReal.new" if attr == "__init__" else f"{layer}.{value.__name__}"
                self._wrapped[value] = self.wrap(span, value)
            setattr(cls, attr, self._wrapped[value])

    def install(self) -> None:
        from beattylab import cli, identities, partition, qfield  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "beattylab" or n.startswith("beattylab.")]
        for layer in LAYERS:
            module = sys.modules[f"beattylab.{layer}"]
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(value)
                    and (layer != "cli" or attr == "main")
                ):
                    self._patch_function(f"{layer}.{attr}", value, modules)
        self._patch_methods("qfield", qfield.QuadraticReal)
        self._patch_methods("partition", partition.PartitionSpec, names={"term"})
        for name, definition in list(identities.IDENTITIES.items()):
            checker = self._counting_records(self.wrap(f"identities.{name}", definition.checker))
            identities.IDENTITIES[name] = dataclasses.replace(definition, checker=checker)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (times in seconds)."""
        from beattylab import identities

        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for (name, parent), (count, total, children) in self.stats.items():
            calls[name] += count
            own[name] += total - children
            if parent != name:  # a direct recursive call is already inside its caller
                inclusive[name] += total

        def layer_self(layer: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e9

        out = {
            "qfield.QuadraticReal.new": calls["qfield.QuadraticReal.new"],
            "qfield.compare.calls": calls["qfield.compare"],
            "qfield.floor.calls": calls["qfield.floor"],
            "wythoff.klm.calls": calls["wythoff.klm"],
            "wythoff.klm.self_s": own["wythoff.klm"] / 1e9,
            "wythoff.ab_label.calls": calls["wythoff.ab_label"],
            "wythoff.ab_label.self_s": own["wythoff.ab_label"] / 1e9,
            "wythoff.unit_interval_label.calls": calls["wythoff.unit_interval_label"],
            "wythoff.frac_phi.calls": calls["wythoff.frac_phi"],
            "wythoff.lower.calls": calls["wythoff.lower"],
            "wythoff.classify_ab.self_s": own["wythoff.classify_ab"] / 1e9,
            "identities.records": self.records,
            "three_set.row_class_census.s": inclusive["three_set.row_class_census"] / 1e9,
            "three_set.ab_over_scd_census.s": inclusive["three_set.ab_over_scd_census"] / 1e9,
            "three_set.density_report.self_s": own["three_set.density_report"] / 1e9,
            "three_set.row_class.calls": calls["three_set.row_class"],
            "partition.build_columns.s": inclusive["partition.build_columns"] / 1e9,
            "partition.verify_partition.s": inclusive["partition.verify_partition"] / 1e9,
            "partition.term.calls": calls["partition.term"],
            "partition.decompose.s": inclusive["partition.decompose"] / 1e9,
        }
        for layer in LAYERS:  # cli wraps only main, so cli.self_s is parsing plus serialisation
            out[f"{layer}.self_s"] = layer_self(layer)
        for name in identities.identity_names():
            out[f"identities.{name}.s"] = inclusive[f"identities.{name}"] / 1e9
        return out

    def table(self) -> list[list]:
        """The (span, parent) aggregates, slowest self time first."""
        rows = [
            [name, parent, count, total / 1e9, (total - children) / 1e9]
            for (name, parent), (count, total, children) in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r[4])
