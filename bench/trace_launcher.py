"""Run the jcrevival CLI with per-layer spans recorded.

Usage: python3 bench/trace_launcher.py SPAN_DIR CLI-ARGS...

Wraps the module attributes the package calls through, then calls
``jcrevival.cli.main(CLI-ARGS)``.  Spans stay in memory; every process
appends its own spans to ``SPAN_DIR/spans-<pid>.jsonl``.  Forked pool
workers skip ``atexit``, so each chunk flushes the spans of the process
that ran it, and the launcher flushes the parent's spans after ``main``.

A span line is ``[id, parent_id, layer, kind, start, end, count]``:
``kind`` is the sweep name, the scalar kind or the ddmath operation;
``count`` is the rows of a sweep, the nodes of a grid, or null.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Span recorder for one process; a forked child starts empty."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.in_ddmath = False
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self.spans, self.stack, self.in_ddmath = [], [], False

    def wrap(self, layer, fn, kind_of, count_of=None):
        """Return fn recording a span per call; kind_of(args, kwargs) and
        count_of(args, kwargs, result) fill the span's kind and count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            span = [span_id, parent, layer, kind_of(args, kwargs), 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(span_id)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if count_of is not None:
                span[6] = count_of(args, kwargs, result)
            return result

        return traced

    def wrap_ddmath(self, name, fn):
        """Like wrap, but only the outermost ddmath call makes a span."""
        traced = self.wrap("ddmath", fn, lambda a, k: name)

        @functools.wraps(fn)
        def outermost(*args, **kwargs):
            if self.in_ddmath:
                return fn(*args, **kwargs)
            self.in_ddmath = True
            try:
                return traced(*args, **kwargs)
            finally:
                self.in_ddmath = False

        return outermost

    def flush(self):
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


_ARITHMETIC = ("__neg__", "__abs__", "__add__", "__radd__", "__sub__",
               "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__rtruediv__", "scale_pow2", "conj")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer, cli, jcm, quadrature, special, ddmath):
    """Replace the package's layer entry points with traced wrappers."""
    import numpy as np

    for name, t_index, t_name in (("resonant_profile", 0, "ts"),
                                  ("detuned_profile", 0, "ts"),
                                  ("q_g", 1, "t")):
        setattr(jcm, name, tracer.wrap(
            "jcm.sweep", getattr(jcm, name), lambda a, k, n=name: n,
            lambda a, k, r, i=t_index, n=t_name: int(np.size(_arg(a, k, i, n)))))
    quadrature.build_grid = tracer.wrap(
        "quadrature.build_grid", quadrature.build_grid,
        lambda a, k: _arg(a, k, 2, "spec").precision_kind,
        lambda a, k, r: r.n + 1)
    quadrature.assemble = tracer.wrap(
        "quadrature.assemble", quadrature.assemble,
        lambda a, k: _arg(a, k, 1, "grid").precision_kind,
        lambda a, k, r: _arg(a, k, 1, "grid").n + 1)
    special.log_gamma = tracer.wrap(
        "special.log_gamma", special.log_gamma,
        lambda a, k: ("extended" if special.is_extended(_arg(a, k, 0, "z"))
                      else "standard"))
    for name, fn in inspect.getmembers(ddmath, inspect.isfunction):
        if fn.__module__ == ddmath.__name__ and not name.startswith("_"):
            setattr(ddmath, name, tracer.wrap_ddmath(name, fn))
    for cls in (ddmath.DD, ddmath.CDD):
        for op in _ARITHMETIC:
            if op in vars(cls):
                setattr(cls, op, tracer.wrap_ddmath(f"{cls.__name__}.{op}",
                                                    vars(cls)[op]))
    for name in ("_integrals_chunk", "_thermal_chunk"):
        chunk = tracer.wrap("cli.chunk", getattr(cli, name), lambda a, k: "chunk")

        @functools.wraps(chunk)
        def flushing(payload, chunk=chunk):
            try:
                return chunk(payload)
            finally:
                tracer.flush()

        setattr(cli, name, flushing)


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    start = time.perf_counter()
    from jcrevival import cli, ddmath, jcm, quadrature, special
    import_s = time.perf_counter() - start
    tracer = Tracer(out_dir)
    install(tracer, cli, jcm, quadrature, special, ddmath)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush()
        with open(out_dir / "launcher.json", "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "import_s": import_s}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
