"""The layers a traced run records, and the per-layer metrics built from them.

Every wrapped function reports ``<module>.<function>.calls`` (a count per
pass) and ``<module>.<function>.self_s`` (seconds per pass, its span time
minus the time of the spans it caused). The notes below add counts taken at
the same boundaries; they read only the call's arguments and result, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations


def _bits(polygons) -> int:
    return max(
        max(abs(v.x.numerator), abs(v.y.numerator)).bit_length()
        for P in polygons
        for v in P.vertices
    )


def _note_mutate(counts, args, out, err) -> None:
    # mutate walks every lattice height of P along md.w, from min to max
    P, md = args[0], args[1]
    heights = [md.w.dot(v) for v in P.vertices]
    span = int(max(heights) - min(heights)) + 1
    counts["mutation.mutate.height_span"] += span
    counts["mutation.mutate.max_height_span"] = max(counts["mutation.mutate.max_height_span"], span)
    bits = _bits([P] if out is None else [P, out])
    counts["mutation.mutate.max_coord_bits"] = max(counts["mutation.mutate.max_coord_bits"], bits)


def _note_find_factors(counts, args, out, err) -> None:
    if out:
        counts["mutation.find_factors.nonempty"] += 1


def _note_linear_equivalent(counts, args, out, err) -> None:
    if out is not None:
        counts["geom.linear_equivalent.hits"] += 1


def _note_deformation(counts, args, out, err) -> None:
    if err is not None:
        counts["deform.mutation_to_deformation.refused"] += 1


def _note_reduce(counts, args, out, err) -> None:
    if out is not None:
        counts["deform.reduce_to_polygon.shifts_kept"] += len(out.shifts)


def _note_mul(counts, args, out, err) -> None:
    a, b = len(args[0].terms), len(args[1].terms)
    counts["laurent.mul.term_pairs"] += a * b
    counts["laurent.mul.max_terms"] = max(counts["laurent.mul.max_terms"], a, b)


# (module, attribute, span name, note)
TARGETS = [
    ("polymut.mutation", "mutate", "mutation.mutate", _note_mutate),
    ("polymut.mutation", "find_factors", "mutation.find_factors", _note_find_factors),
    ("polymut.mutation", "factor_directions", "mutation.factor_directions", None),
    ("polymut.mutation", "mutation_graph", "mutation.mutation_graph", None),
    ("polymut.mutation", "dual_map", "mutation.dual_map", None),
    ("polymut.geom", "linear_equivalent", "geom.linear_equivalent", _note_linear_equivalent),
    ("polymut.geom", "lattice_equivalent", "geom.lattice_equivalent", None),
    ("polymut.geom", "dual", "geom.dual", None),
    ("polymut.fano", "weights", "fano.weights", None),
    ("polymut.fano", "triangle_from_weights", "fano.triangle_from_weights", None),
    ("polymut.fano", "diophantine_class", "fano.diophantine_class", None),
    ("polymut.divpoly", "from_polygon", "divpoly.from_polygon", None),
    ("polymut.divpoly", "to_polygon", "divpoly.to_polygon", None),
    ("polymut.divpoly", "shift_affine", "divpoly.shift_affine", None),
    ("polymut.deform", "mutation_to_deformation", "deform.mutation_to_deformation", _note_deformation),
    ("polymut.deform", "is_admissible", "deform.is_admissible", None),
    ("polymut.deform", "general_fiber", "deform.general_fiber", None),
    ("polymut.deform", "reduce_to_polygon", "deform.reduce_to_polygon", _note_reduce),
    ("polymut.deform", "is_weight_reducing", "deform.is_weight_reducing", None),
    ("polymut.laurent", "parse", "laurent.parse", None),
    ("polymut.laurent", "period_sequence", "laurent.period_sequence", None),
    ("polymut.laurent", "algebraic_mutate", "laurent.algebraic_mutate", None),
    ("polymut.laurent", "LaurentPoly.__mul__", "laurent.mul", _note_mul),
    ("polymut.cli", "main", "cli.main", None),
    ("polymut.cli", "batch_verify", "cli.batch_verify", None),
]

# name, unit, better
EXTRA_METRICS = [
    ("mutation.mutate.height_span", "count", "lower"),
    ("mutation.mutate.max_height_span", "count", "lower"),
    ("mutation.mutate.max_coord_bits", "bits", "lower"),
    ("mutation.find_factors.yield_ratio", "ratio", "higher"),
    ("geom.linear_equivalent.hit_ratio", "ratio", "higher"),
    ("deform.mutation_to_deformation.refused_ratio", "ratio", "lower"),
    ("deform.reduce_to_polygon.shift_accept_ratio", "ratio", "higher"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.mul.max_terms", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# ratio metric -> (count of useful outcomes, count of attempts)
RATIOS = {
    "mutation.find_factors.yield_ratio": ("mutation.find_factors.nonempty", "mutation.find_factors.calls"),
    "geom.linear_equivalent.hit_ratio": ("geom.linear_equivalent.hits", "geom.linear_equivalent.calls"),
    "deform.mutation_to_deformation.refused_ratio": (
        "deform.mutation_to_deformation.refused", "deform.mutation_to_deformation.calls"),
    "deform.reduce_to_polygon.shift_accept_ratio": (
        "deform.reduce_to_polygon.shifts_kept", "divpoly.shift_affine.calls"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints, as (name, unit, better)."""
    out = []
    for _, _, name, _ in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + EXTRA_METRICS
