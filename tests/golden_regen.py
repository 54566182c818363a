"""The golden corpus: named library outputs whose bytes must not change.

Each output is a JSON value: field and shape verdicts with their witnesses,
subfunctor and subgroup lists in their enumeration order, graded window
certificates, the levels of box powers and the face maps of a circle
tensor.  ``tests/golden.json`` keeps one sha256 per name, of the value
dumped with sorted keys; ``test_golden.py`` names every entry that differs.

Run ``python tests/golden_regen.py`` from the repository root to rewrite
``tests/golden.json``, only when a change of output is intended.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mackeybox.boxtensor import box, box_power  # noqa: E402
from mackeybox.errors import MackeyboxError  # noqa: E402
from mackeybox.exactlin import AbHom, FGAbPresentation, enumerate_subgroups, finite_model  # noqa: E402
from mackeybox.grading import (  # noqa: E402
    BoxWindow,
    em_tower,
    graded_field_window_check,
    single_degree_tower,
)
from mackeybox.green import (  # noqa: E402
    burnside_green,
    classify_field_shape,
    constant_green,
    field_top_green,
    is_mackey_field,
)
from mackeybox.intlinalg import IntMatrix  # noqa: E402
from mackeybox.mackey import canonical_levels, constant, enumerate_subfunctors, j_bottom  # noqa: E402
from mackeybox.simplicial import p_circle, tensor_green_with_circle  # noqa: E402
from test_grading import (  # noqa: E402
    deg2,
    f4_over_f2_tower,
    laurent_f2_tower,
    truncated_polynomial_tower,
)
from test_green import (  # noqa: E402
    TOP_LEVEL_CORPUS,
    burnside_mod2_green,
    diagonal_f2_green,
    gf2_galois_green,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"


def green_corpus():
    """Name -> Green functor: fields and non-fields of every shape, from the
    test helpers."""
    corpus = {f"constant-{p}-{n}": constant_green(p, n) for p in (2, 3) for n in (2, 3, 4, 6, 9)}
    corpus.update((f"field-top-{p}-{q}", field_top_green(p, q))
                  for p, q in ((2, 2), (2, 3), (3, 3), (3, 5), (2, 4)))
    corpus.update((name, make()) for name, make in TOP_LEVEL_CORPUS.items())
    corpus["F256"] = gf2_galois_green(8, 0b100011101, 4)
    corpus["F64-trivial"] = gf2_galois_green(6, 0b1000011, 6)
    corpus["F1024-trivial"] = gf2_galois_green(10, 0b10000001001, 10)
    corpus["burnside-mod-2"] = burnside_mod2_green()
    corpus["diagonal-F2"] = diagonal_f2_green()
    return corpus


def attempt(compute):
    """``compute()``, or the type and message of the library error it raises."""
    try:
        return compute()
    except MackeyboxError as error:
        return {"error": type(error).__name__, "message": str(error)}


def field_output(g):
    verdict = is_mackey_field(g)
    out = verdict.to_json()
    if verdict.witness is not None:
        out["canonical_levels"] = canonical_levels(verdict.witness.functor)
    return out


def subfunctor_output(m):
    return [{"top": sorted(map(list, s.top_elements)), "bottom": sorted(map(list, s.bottom_elements))}
            for s in enumerate_subfunctors(m)]


def mackey_corpus(greens):
    """Name -> finite Mackey functor for the subfunctor lists."""
    v = FGAbPresentation(3, IntMatrix.identity(3).scale(2))
    cycle = AbHom(v, v, IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    return {
        "constant-2-4": constant(2, 4),
        "constant-3-9": constant(3, 9),
        "F4": greens["F4"].underlying,
        "F16": greens["F16"].underlying,
        "burnside-mod-2": greens["burnside-mod-2"].underlying,
        "diagonal-F2": greens["diagonal-F2"].underlying,
        "cyclic-F2^3-over-C3": j_bottom(3, v, cycle),
        "box-constant-2-4-2": box(constant(2, 4), constant(2, 2)).result,
    }


def group_corpus():
    """Name -> finite presentation for the subgroup lists, including
    presentations whose Smith form has 1s and mixed moduli."""
    return {
        "Z2^3": FGAbPresentation(3, IntMatrix.identity(3).scale(2)),
        "Z4xZ2": FGAbPresentation(2, IntMatrix([[4, 0], [0, 2]])),
        "Z12-on-2": FGAbPresentation(2, IntMatrix([[2, 1], [0, 6]])),
        "Z3^2xZ9": FGAbPresentation(3, IntMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 9]])),
        "Z2xZ4xZ8": FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 4, 0], [0, 0, 8]])),
        "mixed-3": FGAbPresentation(3, IntMatrix([[2, 4, 0], [0, 6, 3], [1, 1, 1]])),
    }


def outputs():
    """(name, JSON value) for every output of the corpus, in a fixed order."""
    greens = green_corpus()
    for name, g in greens.items():
        yield f"field/{name}", attempt(lambda: field_output(g))
        yield f"shape/{name}", attempt(lambda: classify_field_shape(g).to_json())
        window = BoxWindow(g.prime, 0, 0)
        yield f"window/{name}", attempt(
            lambda: graded_field_window_check(single_degree_tower(g), window).to_json())
    yield "window/burnside-probe", graded_field_window_check(
        single_degree_tower(burnside_green(2)), BoxWindow(2, 0, 0)).to_json()
    for name, m in mackey_corpus(greens).items():
        yield f"subfunctors/{name}", subfunctor_output(m)
    for name, pres in group_corpus().items():
        yield f"subgroups/{name}", [sorted(map(list, s))
                                    for s in enumerate_subgroups(finite_model(pres))]
    f2 = classify_field_shape(field_top_green(2, 2))
    for m in range(1, 21):
        window = BoxWindow(2, m, m)
        yield f"tower/F2-{m}", graded_field_window_check(em_tower(f2, window), window).to_json()
    for p, a_bound, m_bound in ((3, 2, 3), (3, 0, 4), (5, 1, 2), (5, 2, 3), (7, 1, 1)):
        window = BoxWindow(p, a_bound, m_bound)
        tower = em_tower(classify_field_shape(field_top_green(p, p)), window)
        yield f"tower/F{p}-{a_bound}-{m_bound}", {
            "pieces": [d.key() for d in tower.pieces],
            "certificate": graded_field_window_check(tower, window).to_json(),
        }
    towers = {
        "laurent-0-1": laurent_f2_tower([deg2(0, 0), deg2(1, 0)]),
        "laurent-3": laurent_f2_tower([deg2(-1, 0), deg2(0, 0), deg2(1, 0)]),
        "f4-over-f2": f4_over_f2_tower(),
        "truncated-polynomial": truncated_polynomial_tower(),
    }
    for name, tower in towers.items():
        yield f"tower/{name}", graded_field_window_check(tower, BoxWindow(2, 1, 0)).to_json()
    for name in ("constant-3-3", "F4"):
        for k in range(1, 5):
            m = greens[name].underlying
            yield f"box_power/{name}-{k}", canonical_levels(box_power(m, k).result)
    circle = tensor_green_with_circle(greens["F4"], p_circle(2, 3), 3)
    for (k, i), face in sorted(circle.faces.items()):
        yield f"circle_face/F4-{k}-{i}", face.to_json()


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digests():
    return {name: digest(value) for name, value in outputs()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
