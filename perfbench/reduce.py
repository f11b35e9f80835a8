"""Reduce cProfile output to the benchmark's per-layer metrics.

A layer is a module of ``src/qgcheck``.  Three kinds of figure come out
of one profile (the stats of every job of a pass, added together):

* self time per layer: the profiler's own time of each function defined
  in the module's file.  Functions of the standard library's
  ``fractions`` module count under ``scalars``, since only ``Cyc`` calls
  them on the hot paths.  Time inside numpy or builtins is not moved to
  any layer, so the float layer's cost shows only as inclusive time.
* inclusive time and calls of public entry points.  A call counts when
  its caller, taken from the profile's caller links, is not itself one
  of the entry points being summed, so a nested or recursive call is
  not counted twice.
* call counts of the scalar and linalg primitives, which repeat exactly
  for a given seed.
"""

from __future__ import annotations

import ast
import functools
import os
import pstats

LAYERS = ("scalars", "linalg", "hopf", "modular", "duality", "gns",
          "subgroups", "modelio", "models", "report", "cli")

# metric prefix -> (layer, function names summed, figures reported):
# "calls" counts the calls, "cum_s" is their inclusive time
ENTRY_POINTS = {
    "hopf.validate_model": ("hopf", ("validate_model",), ("cum_s",)),
    "hopf.galois_variants": ("hopf", ("galois_variants",), ("cum_s",)),
    "modular.solve_haar": ("modular", ("solve_haar",), ("calls", "cum_s")),
    "duality.build_dual": ("duality", ("build_dual",), ("calls", "cum_s")),
    "duality.build_alg_mult_unitary":
        ("duality", ("build_alg_mult_unitary",), ("calls",)),
    "duality.check_convolution_compat":
        ("duality", ("check_convolution_compat",), ("cum_s",)),
    "duality.check_pentagon_and_lemmas":
        ("duality", ("check_pentagon_and_lemmas",), ("cum_s",)),
    "duality.check_biduality": ("duality", ("check_biduality",), ("cum_s",)),
    "gns.build_gns": ("gns", ("build_gns",), ("calls", "cum_s")),
    "subgroups.build_dual_morphism":
        ("subgroups", ("build_dual_morphism",), ("cum_s",)),
    "subgroups.certify_vaes": ("subgroups", ("certify_vaes",), ("cum_s",)),
    "modelio.read": ("modelio", ("parse_model", "parse_morphism"), ("cum_s",)),
    "modelio.write": ("modelio", ("emit_model", "write_report"), ("cum_s",)),
}

# metric -> (layer, function name) of a primitive whose calls are counted
PRIMITIVE_CALLS = {
    "scalars.mul.calls": ("scalars", "Cyc.__mul__"),
    "scalars.new.calls": ("scalars", "Cyc.__init__"),
    "linalg.matmul.calls": ("linalg", "LinMap.__matmul__"),
    "linalg.apply_on_legs.calls": ("linalg", "apply_on_legs"),
    "linalg.leg_permutation.calls": ("linalg", "LinMap.leg_permutation"),
}


def layer_of(filename: str) -> str | None:
    """The layer a profiled function belongs to, or None."""
    parent, base = os.path.split(filename)
    stem, ext = os.path.splitext(base)
    if ext != ".py":
        return None
    if os.path.basename(parent) == "qgcheck":
        return stem if stem in LAYERS else None
    return "scalars" if stem == "fractions" else None


@functools.lru_cache(maxsize=None)
def source_qualnames(filename: str) -> dict[int, str]:
    """First line of each function in a source file -> its dotted name.

    The profiler keys a function by file, first line and bare name; the
    first line (that of the first decorator, if any) tells a class's
    methods apart from same-named functions elsewhere in the module.
    """
    try:
        with open(filename, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
    except (OSError, SyntaxError):
        return {}
    names: dict[int, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    names[first] = name
                visit(child, name + ".")
    visit(tree, "")
    return names


def _index(stats: dict, qualnames):
    """(layer, dotted function name) -> list of profile keys."""
    index: dict[tuple[str, str], list] = {}
    for key in stats:
        layer = layer_of(key[0])
        if layer is not None:
            name = qualnames(key[0]).get(key[1], key[2])
            index.setdefault((layer, name), []).append(key)
    return index


def entry_totals(stats: dict, keys) -> tuple[int, float]:
    """Calls and inclusive seconds of a set of functions, counting only
    calls whose caller lies outside the set."""
    keys = set(keys)
    calls, cum_s = 0, 0.0
    for key in keys:
        for caller, (_, nc, _, ct) in stats[key][4].items():
            if caller not in keys:
                calls, cum_s = calls + nc, cum_s + ct
    return calls, cum_s


def reduce_stats(stats: dict, qualnames=source_qualnames) -> dict[str, float]:
    """Per-layer metrics from a ``pstats.Stats(...).stats`` mapping.

    ``qualnames`` maps a source file to {first line: dotted name}.
    """
    index = _index(stats, qualnames)
    out: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, tt, _, _) in stats.items():
        layer = layer_of(key[0])
        if layer is not None:
            self_s[layer] += tt
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    for metric, (layer, name) in PRIMITIVE_CALLS.items():
        out[metric] = sum(stats[k][1] for k in index.get((layer, name), ()))
    for prefix, (layer, names, figures) in ENTRY_POINTS.items():
        keys = [k for n in names for k in index.get((layer, n), ())]
        calls, cum_s = entry_totals(stats, keys)
        if "calls" in figures:
            out[f"{prefix}.calls"] = calls
        if "cum_s" in figures:
            out[f"{prefix}.cum_s"] = cum_s
    return out


def reduce_files(paths) -> dict[str, float]:
    """Per-layer metrics of several profile files added together."""
    stats = pstats.Stats(paths[0])
    for p in paths[1:]:
        stats.add(p)
    return reduce_stats(stats.stats)
