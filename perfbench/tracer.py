"""In-memory span tracer for charshift's public functions.

install() wraps each traced function and rebinds every attribute of a loaded
``charshift`` module (and every ShiftOracle method) that refers to it, so
calls made through any import path are seen.  Nothing on disk changes and
uninstall() restores the originals.  A function that does not exist is
skipped, so a later rename or removal only makes its metrics absent.

Spans are aggregated per (phase, tag, name) as [calls, total_s, self_s];
self time is a span's duration minus the durations of the traced spans it
directly contains.  The benchmark opens one root span per timed operation,
so the self times of one phase sum to the root spans' total duration.
"""

import inspect
import json
import sys
import time
import weakref

CLI_TRACE_PREFIX = "perfbench-trace "

LAYERS = ("algorithms", "oracles", "qsim", "number_theory", "finite_field", "cli")

# Public helpers called once per basis index or field element from inside
# another traced function; a span around each of them would mostly time the
# tracer, so their cost stays in the caller's self time.
UNTRACED = frozenset({
    "oracles.result_is_zero",
    "oracles.result_digit",
    "finite_field.element_from_index",
    "finite_field.element_to_index",
    "finite_field.make_element",
    "finite_field.zero",
    "finite_field.one",
    "finite_field.ff_neg",
    "finite_field.ff_arith",
    "finite_field.trace",
})

# Private functions traced by name because a per-layer metric needs them.
EXTRA = {"algorithms": ("_verify_legendre", "_verify_jacobi", "_verify_field")}

# Extra counts taken from a traced call: span -> (count name, amount).
COUNTERS = {
    "algorithms.prepare_character_state": (
        "algorithms.prepare_character_state.accepted", lambda out: int(bool(out[0]))),
    "algorithms.verify_legendre": ("algorithms.verify.passed", lambda out: int(bool(out))),
    "algorithms.verify_jacobi": ("algorithms.verify.passed", lambda out: int(bool(out))),
    "algorithms.verify_field": ("algorithms.verify.passed", lambda out: int(bool(out))),
    "qsim.qft": ("qsim.qft.points", lambda out: out.dim),
}

ORACLE_METHODS = {
    "query": "oracles.query",
    "phase_query": "oracles.phase_query",
    "value_query_superposed": "oracles.value_query",
}


class Tracer:
    def __init__(self):
        self.buckets = {}  # (phase, tag) -> {name: [calls, total_s, self_s]}
        self.current = self.bucket("setup", "")
        self.traced = set()
        self._stack = [0.0]
        self._restore = []

    def bucket(self, phase, tag):
        return self.buckets.setdefault((phase, tag), {})

    def use(self, phase, tag=""):
        """Charge the following spans to (phase, tag)."""
        self.current = self.bucket(phase, tag)

    def count(self, name, n=1):
        rec = self.current.setdefault(name, [0, 0.0, 0.0])
        rec[0] += n

    # -- spans ---------------------------------------------------------------

    def timed(self, name, fn):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                rec = tracer.current.get(name)
                if rec is None:
                    rec = tracer.current[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def root(self, fn, *args, **kwargs):
        """Run fn(*args) inside a root span named "bench.op"."""
        return self.timed("bench.op", fn)(*args, **kwargs)

    def merge_cli(self, stderr, elapsed):
        """Fold the spans a traced CLI process wrote to stderr into the
        current bucket, under a root span of the invocation's wall time."""
        line = stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
        if not line.startswith(CLI_TRACE_PREFIX):
            raise RuntimeError("traced CLI run wrote no spans")
        data = json.loads(line[len(CLI_TRACE_PREFIX):])
        self.traced.update(data["traced"])
        for name, rec in data["spans"].items():
            acc = self.current.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        acc = self.current.setdefault("bench.op", [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += elapsed
        acc[2] += elapsed - data["root_s"]
        self._stack[0] += elapsed

    # -- installation ---------------------------------------------------------

    def install(self):
        import charshift

        for layer in LAYERS:
            module = sys.modules.get(f"charshift.{layer}")
            if module is None:
                module = __import__(f"charshift.{layer}", fromlist=["_"])
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not n.startswith("_")]
            names += [n for n in EXTRA.get(layer, ()) if hasattr(module, n)]
            for fname in names:
                span = f"{layer}.{fname.lstrip('_')}"
                if span in UNTRACED:
                    continue
                original = getattr(module, fname)
                wrapper = self._wrapper_for(span, original)
                self._rebind(original, wrapper)
                self.traced.add(span)

        oracle_cls = getattr(charshift.oracles, "ShiftOracle", None)
        for attr, span in ORACLE_METHODS.items():
            original = getattr(oracle_cls, attr, None)
            if original is None:
                continue
            if span == "oracles.value_query":
                wrapper = self._first_call_split(span, original)
                self.traced.add(span + ".first")
            else:
                wrapper = self.timed(span, original)
            self._restore.append((oracle_cls, attr, original))
            setattr(oracle_cls, attr, wrapper)
            self.traced.add(span)
        return self

    def _wrapper_for(self, span, original):
        wrapper = self.timed(span, original)
        counter = COUNTERS.get(span)
        if counter is None:
            return wrapper
        name, amount = counter
        tracer = self

        def counted(*args, **kwargs):
            out = wrapper(*args, **kwargs)
            tracer.count(name, amount(out))
            return out

        return counted

    def _first_call_split(self, span, original):
        # The first coherent query on an oracle pays for its lazy table.
        first = self.timed(span + ".first", original)
        later = self.timed(span, original)
        seen = weakref.WeakSet()

        def value_query(oracle, *args, **kwargs):
            if oracle in seen:
                return later(oracle, *args, **kwargs)
            seen.add(oracle)
            return first(oracle, *args, **kwargs)

        return value_query

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "charshift" and not modname.startswith("charshift."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def totals(self, phase, tags=None):
        """{name: [calls, total_s, self_s]} summed over a phase's tags."""
        out = {}
        for (ph, tag), bucket in self.buckets.items():
            if ph != phase or (tags is not None and tag not in tags):
                continue
            for name, rec in bucket.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
        return out

    def cli_record(self):
        """One stderr line carrying this process's spans, for merge_cli."""
        return CLI_TRACE_PREFIX + json.dumps(
            {"root_s": self._stack[0], "traced": sorted(self.traced), "spans": self.current})

    def dump(self):
        return [{"phase": ph, "tag": tag, "name": name,
                 "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
                for (ph, tag), bucket in sorted(self.buckets.items())
                for name, rec in sorted(bucket.items())]
