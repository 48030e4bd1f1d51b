"""Run the ramseykit CLI with a timing span around every public function
of its modules, then write the spans to a JSON file.

    PYTHONPATH=src python3 perfbench/launch.py <spans.json> <CLI arguments...>

Functions are wrapped at module-attribute level and the package source
is left untouched.  Every attribute of every ramseykit module that is
bound to a wrapped function is rebound to the same wrapper: `cli` and
`construct` import names directly, and a call through an alias left
unwrapped would silently drop its span.  Each span is
[name, start, end, parent index, count], where count is the work a call
reports through its result (edges drawn, cliques found, search nodes).
"""

from time import perf_counter

STARTED = perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import ramseykit.cli  # noqa: E402

IMPORTED = perf_counter()

LAYERS = ("construct", "hypergraph", "covers", "arrows", "fileio", "cli")

COUNTS = {
    "construct.sample_hypergraph": lambda H: H.num_edges,
    "construct.linearity_violations": len,
    "construct.conformality_violations": len,
    "construct.clean": lambda report: len(report.deleted),
    "hypergraph.enumerate_cliques": len,
    "covers.enumerate_minimal_nontrivial_covers": len,
    "arrows.arrows_decision": lambda result: result.nodes_explored,
}


def install(spans: list) -> None:
    stack: list[int] = []

    def traced(name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return wrapper

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"ramseykit.{layer}"]
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = traced(f"{layer}.{name}", obj)
    for modname, module in list(sys.modules.items()):
        if modname == "ramseykit" or modname.startswith("ramseykit."):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
    # coloring validation runs in the dataclass's __post_init__
    coloring = ramseykit.hypergraph.EdgeColoring
    coloring.__post_init__ = traced("hypergraph.EdgeColoring", coloring.__post_init__)


def main() -> int:
    spans: list = []
    install(spans)
    rc = ramseykit.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": IMPORTED - STARTED, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
