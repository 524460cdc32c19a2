"""Spans around the calls into the program's public functions.

`install` wraps the functions listed in `TRACED` and puts each wrapper
into every module of the package that holds the original object, since
the modules import each other's functions by name.  Each call records
one span (name, start, end, parent) in flat arrays kept in memory;
`summarize` turns the spans of one request into self times and counts,
and `dump` writes every span of a request to a file.

Accessors and per-term helpers (`as_fraction`, `d_lambda`,
`falling_factorial`, `is_noncrossing`, `MomentSequence.moment`, ...) are
not wrapped: they run once per term of a sum, and their time stays in
the self time of the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# module -> names of functions, or "Class.method", to wrap
TRACED = {
    "series": [
        "TruncatedSeries.__mul__", "TruncatedSeries.reciprocal", "TruncatedSeries.compose",
        "TruncatedSeries.revert", "TruncatedSeries.log", "TruncatedSeries.exp",
        "TruncatedSeries.power", "TruncatedSeries.to_json", "TruncatedSeries.from_json",
    ],
    "partitions": [
        "integer_partitions", "set_partitions", "noncrossing_partitions",
        "interval_partitions", "leq_refinement", "interval_type", "kreweras_complement",
        "count_by_shape",
    ],
    "transforms": [
        "named_sequence", "classical_from_moments", "moments_from_classical",
        "classical_from_moments_series", "boolean_from_moments", "moments_from_boolean",
        "boolean_from_moments_series", "free_from_moments", "moments_from_free",
        "moments_from_free_series", "generalized_cumulants", "moments_from_generalized",
        "abel_oracle", "abel_copy_oracle", "cumulant_matrix", "classical_convolve",
        "boolean_convolve", "free_convolve", "gamma_convolve", "boolean_free_transport",
        "umbral_composition", "factorial_moments", "dot_operation",
        "MomentSequence.bar", "MomentSequence.unbar", "MomentSequence.scaled",
        "MomentSequence.truncated", "MomentSequence.to_egf", "MomentSequence.to_ogf",
        "MomentSequence.from_egf", "MomentSequence.from_ogf", "MomentSequence.to_json",
        "MomentSequence.from_json", "CumulantMatrix.to_json",
    ],
    "lattice": [
        "eval_interval", "convolve_lattice", "mobius_by_recursion", "mobius_function",
        "verify_theorem",
    ],
    "parking": [
        "enumerate_parking", "_parking_functions", "parking_type", "orbit_size",
        "volume_bruteforce", "volume_bruteforce_symmetric", "volume_shape_eval",
        "orbit_moment_eval", "moments_via_volume",
    ],
    "cli": [
        "main", "_read_input", "_parse_json", "_load_moments", "_load_moment_pair",
        "_load_series", "_load_series_pair", "_parse_g", "_emit", "_cmd_transform",
        "_cmd_convolve", "_cmd_matrix", "_cmd_series", "_cmd_volume", "_cmd_verify",
    ],
}

# calls whose result length is recorded as the span's size
SIZED = {
    "partitions.set_partitions", "partitions.noncrossing_partitions",
    "partitions.interval_partitions", "parking._parking_functions",
}

CLI_PARSE = {
    "cli._read_input", "cli._parse_json", "cli._load_moments", "cli._load_moment_pair",
    "cli._load_series", "cli._load_series_pair", "cli._parse_g",
}
CLI_EMIT = {
    "cli._emit", "transforms.MomentSequence.to_json", "transforms.CumulantMatrix.to_json",
    "series.TruncatedSeries.to_json",
}


class Tracer:
    """Flat, append-only span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop all spans; the arrays are cleared in place, since wrappers hold them."""
        if not hasattr(self, "name"):
            self.name, self.parent, self.size = array("i"), array("i"), array("q")
            self.start, self.end = array("q"), array("q")
            self._stack = [-1]
        for arr in (self.name, self.parent, self.start, self.end, self.size):
            del arr[:]
        self._stack[:] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        sized = name in SIZED
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0)
            self.size.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if sized:
                self.size[idx] = len(result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def summarize(self) -> dict:
        """Per span name: calls, self ns, outermost inclusive ns, size; plus counts."""
        count = len(self.name)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        per: dict[str, list] = {}
        refinement_from_lattice = 0
        for i in range(count):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rec = per.setdefault(name, [0, 0, 0, 0])
            rec[0] += 1
            rec[1] += dur - child_ns[i]
            rec[3] += self.size[i]
            p = self.parent[i]
            pname = self.names[self.name[p]] if p >= 0 else ""
            if pname != name:
                rec[2] += dur
            if name == "partitions.leq_refinement" and pname.startswith("lattice."):
                refinement_from_lattice += 1
        stage = {"main": 0, "command": 0, "parse": 0, "emit": 0}
        for i in range(count):
            name = self.names[self.name[i]]
            p = self.parent[i]
            pname = self.names[self.name[p]] if p >= 0 else ""
            dur = self.end[i] - self.start[i]
            if name == "cli.main":
                stage["main"] += dur
            elif name.startswith("cli._cmd_"):
                stage["command"] += dur
            elif pname.startswith("cli._cmd_") and (name in CLI_PARSE or name in CLI_EMIT):
                stage["parse" if name in CLI_PARSE else "emit"] += dur
        return {
            "spans": count,
            "per_name": {k: {"calls": v[0], "self_ns": v[1], "incl_ns": v[2], "size": v[3]}
                         for k, v in per.items()},
            "refinement_from_lattice": refinement_from_lattice,
            "cli_stage_ns": stage,
        }

    def dump(self, path: str) -> None:
        """Every span as one JSON header line, then the raw arrays.

        The header gives the span count, the span names (indexed by the
        `name` array) and the arrays in the order they follow, each with
        its `array` type code; `parent` is -1 for a top-level span and
        `size` is the result length of the calls in SIZED.
        """
        arrays = [("name", self.name), ("parent", self.parent), ("start_ns", self.start),
                  ("end_ns", self.end), ("size", self.size)]
        header = {"count": len(self.name), "names": self.names,
                  "arrays": [[label, arr.typecode, arr.itemsize] for label, arr in arrays],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


def span_cost_ns(calls: int = 20000) -> float:
    """Cost of one traced call over a plain one, on a function doing nothing."""
    tracer = Tracer()
    plain = lambda: None  # noqa: E731
    wrapped = tracer.wrap("cost", plain)
    took = []
    for fn in (plain, wrapped):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        took.append(time.perf_counter_ns() - t0)
    return (took[1] - took[0]) / calls


def install(tracer: Tracer) -> int:
    """Wrap every function in TRACED, in every package module that binds it."""
    package = sys.modules["cumulants"]
    modules = [package] + [
        sys.modules[f"cumulants.{name}"] for name in TRACED if f"cumulants.{name}" in sys.modules
    ]
    wrapped = 0
    for modname, names in TRACED.items():
        module = sys.modules.get(f"cumulants.{modname}")
        if module is None:
            continue
        for dotted in names:
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(f"{modname}.{dotted}", raw.__func__)))
                else:
                    wrapper = tracer.wrap(f"{modname}.{dotted}", raw)
                    for attr, value in list(cls.__dict__.items()):
                        if value is raw:
                            setattr(cls, attr, wrapper)
                wrapped += 1
                continue
            original = getattr(module, dotted)
            wrapper = tracer.wrap(f"{modname}.{dotted}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            wrapped += 1
    return wrapped
