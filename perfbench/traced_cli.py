"""Run one equidouble CLI invocation under benchmark-owned wrappers.

Usage: python traced_cli.py spans|counters TRACE_PATH <equidouble CLI arguments>

The program's code is not edited: each wrapped function is rebound in every
package module that holds it (and on its class, for methods). The report goes
to stdout as usual; the trace is written to TRACE_PATH as JSON when the
invocation ends, and the exit code is the CLI's.

- spans: records (name, start, end, parent) for every call of a function in
  layers.SPANS, plus which character_table calls saw a group table already
  seen in this process.
- counters: counts calls of the hot functions in layers.COUNTERS.
"""

import functools
import importlib
import json
import sys
import time

import layers


def rebind(module_name: str, target: str, make) -> bool:
    """Replace the function `target` of `module_name` by make(original),
    wherever a package module or the owning class refers to it. Returns False,
    wrapping nothing, when the program no longer has that function."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = target.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = vars(owner).get(attr) if owner is not None else None
    if original is None:
        return False
    if owner_name:
        holders = [owner]
    else:
        holders = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "equidouble"]
    replacement = make(original)
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, replacement)
    return True


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.table_calls = 0
        self.table_hits = 0
        self._tables_seen: set = set()

    def wrap(self, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()

            return wrapper

        return make

    def watch_tables(self, fn):
        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            self.table_calls += 1
            key = group.table
            if key in self._tables_seen:
                self.table_hits += 1
            self._tables_seen.add(key)
            return fn(group, *args, **kwargs)

        return wrapper


def count_calls(counts: dict, name: str):
    counts.setdefault(name, 0)

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def main(argv: list[str]) -> int:
    mode, trace_path, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import equidouble.cli

    trace: dict = {"mode": mode, "import_s": time.perf_counter() - start, "missing": []}
    if mode == "spans":
        recorder = SpanRecorder()
        for name, module_name, target in layers.SPANS:
            if not rebind(module_name, target, recorder.wrap(name)):
                trace["missing"].append(f"{module_name}.{target}")
        rebind("equidouble.chartable", "character_table", recorder.watch_tables)
    elif mode == "counters":
        counts: dict[str, int] = {}
        for name, module_name, target in layers.COUNTERS:
            if not rebind(module_name, target, count_calls(counts, name)):
                trace["missing"].append(f"{module_name}.{target}")
    else:
        print(f"traced_cli: unknown mode {mode!r}", file=sys.stderr)
        return 2

    code = equidouble.cli.main(cli_args)
    sys.stdout.flush()
    if mode == "spans":
        trace["spans"] = recorder.spans
        trace["character_table"] = {"calls": recorder.table_calls, "hits": recorder.table_hits}
    else:
        trace["counters"] = counts
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
