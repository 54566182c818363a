"""Per-layer tracing of mackeybox from outside the package.

``install`` wraps the public boundary functions of each module in spans.
Module functions are replaced in every ``mackeybox`` module namespace that
binds them, because the modules import each other's functions by name; class
methods are replaced on the class; the two SNF kernels are replaced as
module attributes, which is how ``intlinalg`` calls them.  A traced process
is never reused for an untraced measurement.

A span records its name, start, end and parent.  Spans stay in memory in
flat arrays and are written out once, after the timed region.  A span's self
time is its duration minus the time its child spans cover; each layer's
``self_s`` is the self time of its spans, so the layers' ``self_s`` plus the
time outside every span (``trace.unattributed_s``) is the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

LAYERS = ("intlinalg", "exactlin", "mackey", "boxtensor", "green", "grading", "simplicial")

# Maps out of box products written down on generator labels; together they
# give boxtensor.label_maps and boxtensor.label_map_s.
LABEL_MAPS = (
    "map_from_pairing",
    "box_map",
    "permute_twist",
    "contract_pair",
    "contract_by_assignment",
    "nested_to_flat",
)


class Tracer:
    def __init__(self):
        self.layer_of = []  # span-name id -> layer
        self.names = []  # span-name id -> name
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.matrix_builds = 0
        self.maxima = {"snf_max_cells": 0, "max_top_generators": 0, "max_top_relations": 0}
        self.totals = {"subgroups_found": 0, "subfunctors_found": 0, "tower_pieces": 0}

    def span(self, layer, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` records sizes."""
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- post-processing, outside the timed region ------------------------
    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def inclusive(self, names, dur):
        """(calls, seconds) of spans named in ``names``; nested repeats of the
        group count as calls but not again as time."""
        ids = {i for i, n in enumerate(self.names) if n in names}
        calls = 0
        seconds = 0.0
        name_id, parent = self.name_id, self.parent
        for i in range(len(dur)):
            if name_id[i] not in ids:
                continue
            calls += 1
            p = parent[i]
            while p >= 0 and name_id[p] not in ids:
                p = parent[p]
            if p < 0:
                seconds += dur[i]
        return calls, seconds

    def self_times(self, dur):
        """(self seconds per layer, seconds covered by root spans)."""
        child = [0.0] * len(dur)
        roots = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i, nid in enumerate(self.name_id):
            per_layer[self.layer_of[nid]] += dur[i] - child[i]
        return per_layer, roots

    def metrics(self, wall_s):
        """Per-layer metrics of one traced repetition whose wall time is ``wall_s``."""
        dur = self.durations()
        per_layer, roots = self.self_times(dur)

        def calls_and_seconds(*names):
            return self.inclusive(set(names), dur)

        out = {}
        snf_calls, snf_s = calls_and_seconds("snf.pure", "snf.compiled")
        compiled_calls, _ = calls_and_seconds("snf.compiled")
        solve_calls, solve_s = calls_and_seconds("solve")
        hermite_calls, hermite_s = calls_and_seconds("hermite_row_basis")
        out["intlinalg"] = {
            "snf_calls": snf_calls,
            "snf_s": snf_s,
            "snf_max_cells": self.maxima["snf_max_cells"],
            "snf_compiled_share": compiled_calls / snf_calls if snf_calls else 0.0,
            "solve_calls": solve_calls,
            "solve_s": solve_s,
            "hermite_calls": hermite_calls,
            "hermite_s": hermite_s,
            "matrix_builds": self.matrix_builds,
        }
        hom_checks, hom_check_s = calls_and_seconds("AbHom.__post_init__")
        membership, membership_s = calls_and_seconds("FGAbPresentation.reduces_to_zero")
        sm_calls, sm_s = calls_and_seconds("solve_membership")
        models, model_s = calls_and_seconds("finite_model")
        _, subgroup_s = calls_and_seconds("enumerate_subgroups")
        out["exactlin"] = {
            "hom_checks": hom_checks,
            "hom_check_s": hom_check_s,
            "membership_tests": membership,
            "membership_s": membership_s,
            "solve_membership_calls": sm_calls,
            "solve_membership_s": sm_s,
            "finite_models": models,
            "finite_model_s": model_s,
            "subgroups_found": self.totals["subgroups_found"],
            "subgroup_enum_s": subgroup_s,
        }
        validate_calls, validate_s = calls_and_seconds("validate_mackey")
        composes, _ = calls_and_seconds("MackeyMap.compose")
        equals, _ = calls_and_seconds("MackeyMap.equals")
        _, subfunctor_s = calls_and_seconds("enumerate_subfunctors")
        out["mackey"] = {
            "validate_calls": validate_calls,
            "validate_s": validate_s,
            "map_composes": composes,
            "map_equals": equals,
            "subfunctors_found": self.totals["subfunctors_found"],
            "subfunctor_enum_s": subfunctor_s,
        }
        box_calls, box_s = calls_and_seconds("box_many")
        label_maps, label_map_s = calls_and_seconds(*LABEL_MAPS)
        out["boxtensor"] = {
            "box_calls": box_calls,
            "box_s": box_s,
            "max_top_generators": self.maxima["max_top_generators"],
            "max_top_relations": self.maxima["max_top_relations"],
            "label_maps": label_maps,
            "label_map_s": label_map_s,
        }
        ideal_checks, ideal_s = calls_and_seconds("is_ideal")
        out["green"] = {
            "ideal_checks": ideal_checks,
            "ideal_check_s": ideal_s,
            "commutativity_s": calls_and_seconds("GreenFunctor.is_commutative")[1],
            "validate_s": calls_and_seconds("validate_green")[1],
        }
        window_checks, window_s = calls_and_seconds("graded_field_window_check")
        out["grading"] = {
            "window_checks": window_checks,
            "window_check_s": window_s,
            "tower_pieces": self.totals["tower_pieces"],
        }
        out["simplicial"] = {
            "tensor_s": calls_and_seconds("tensor_green_with_circle")[1],
            "identity_check_s": calls_and_seconds("SimplicialMackey.identity_failures")[1],
        }
        flat = {}
        for layer in LAYERS:
            out[layer]["self_s"] = per_layer[layer]
            for key, value in out[layer].items():
                flat[f"{layer}.{key}"] = value
        flat["trace.wall_s"] = wall_s
        flat["trace.unattributed_s"] = wall_s - roots
        return flat

    def write(self, path):
        """All spans as gzip TSV: name, start, end, parent index."""
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\n")
            names = self.names
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                out.write(f"{names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def install(tracer):
    """Wrap the boundary functions of every mackeybox layer in spans."""
    from mackeybox import (
        _snf_py,
        boxtensor,
        exactlin,
        grading,
        green,
        intlinalg,
        mackey,
        simplicial,
    )

    modules = (intlinalg, exactlin, mackey, boxtensor, green, grading, simplicial)

    def function(module, attr, layer, after=None):
        original = getattr(module, attr)
        wrapped = tracer.span(layer, attr, original, after)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapped)

    def method(cls, attr, layer, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.span(layer, f"{cls.__name__}.{attr}", original, after))

    def maximum(key, value):
        if value > tracer.maxima[key]:
            tracer.maxima[key] = value

    def add(key, value):
        tracer.totals[key] += value

    # intlinalg: the kernels are module attributes looked up at call time
    def snf_size(args, _):
        maximum("snf_max_cells", args[1] * args[2])

    _snf_py.smith_normal_form = tracer.span("intlinalg", "snf.pure", _snf_py.smith_normal_form, snf_size)
    if intlinalg._snf_core is not None:
        core = intlinalg._snf_core
        core.smith_normal_form = tracer.span("intlinalg", "snf.compiled", core.smith_normal_form, snf_size)
    for attr in ("solve", "hermite_row_basis", "kernel_basis", "unimodular_inverse"):
        function(intlinalg, attr, "intlinalg")
    IntMatrix = intlinalg.IntMatrix
    for attr in ("transpose", "__matmul__", "__add__", "scale", "power", "kron", "vstack", "hstack"):
        method(IntMatrix, attr, "intlinalg")
    init = IntMatrix.__init__

    def counted_init(self, rows, ncols=None):
        tracer.matrix_builds += 1
        init(self, rows, ncols)

    IntMatrix.__init__ = counted_init

    # exactlin
    method(exactlin.AbHom, "__post_init__", "exactlin")
    method(exactlin.FGAbPresentation, "reduces_to_zero", "exactlin")
    method(exactlin.FGAbPresentation, "canonical", "exactlin")
    method(exactlin.AbHom, "compose", "exactlin")
    method(exactlin.AbHom, "equals", "exactlin")
    for attr in (
        "solve_membership",
        "finite_model",
        "present_quotient",
        "hom_kernel",
        "hom_cokernel",
        "factor_through_injection",
        "tensor",
        "direct_sum",
        "subgroup_key",
        "subgroup_presentation",
    ):
        function(exactlin, attr, "exactlin")
    function(
        exactlin, "enumerate_subgroups", "exactlin",
        after=lambda args, result: add("subgroups_found", len(result)),
    )

    # mackey
    function(mackey, "validate_mackey", "mackey")
    function(mackey, "j_bottom", "mackey")
    function(
        mackey, "enumerate_subfunctors", "mackey",
        after=lambda args, result: add("subfunctors_found", len(result)),
    )
    for attr in ("__post_init__", "compose", "equals", "is_isomorphism"):
        method(mackey.MackeyMap, attr, "mackey")

    # boxtensor
    def box_size(args, result):
        top = result.result.top
        maximum("max_top_generators", top.num_generators)
        maximum("max_top_relations", top.relations.nrows)

    function(boxtensor, "box_many", "boxtensor", after=box_size)
    for attr in LABEL_MAPS + ("pairing_from_matrices", "unitor", "burnside_action_pairing"):
        function(boxtensor, attr, "boxtensor")
    method(boxtensor.BilinearPairing, "check", "boxtensor")

    # green
    for attr in (
        "is_ideal",
        "validate_green",
        "is_mackey_field",
        "classify_field_shape",
        "top_level_is_field",
        "fixed_point_green",
        "green_from_mult",
        "constant_green",
        "field_top_green",
    ):
        function(green, attr, "green")
    method(green.GreenFunctor, "is_commutative", "green")

    # grading
    function(grading, "graded_field_window_check", "grading")
    function(
        grading, "em_tower", "grading",
        after=lambda args, result: add("tower_pieces", len(result.pieces)),
    )

    # simplicial
    function(simplicial, "tensor_green_with_circle", "simplicial")
    function(simplicial, "p_circle", "simplicial")
    method(simplicial.SimplicialMackey, "identity_failures", "simplicial")
