import argparse
import collections
import enum
import inspect
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from quadfold import (
    BranchId,
    FFUnitMode,
    NotABlanket,
    PlanLengths,
    QuadPattern,
    SerializationError,
    StitchPlan,
    Unit,
    ValidationFailed,
    Vertex4,
    build_tree,
    certify,
    enumerate_branch_choices,
    export_fold,
    export_obj,
    export_svg,
    fold_dumps,
    import_fold,
    mv_assignment,
    propagate,
    realize,
    solve_ff_unit,
    stitch,
    sweep,
    valid_branch_pairs,
    validate_unit,
)
from quadfold.cli import _count_at_least, _parse_branch_spec, main
from quadfold.config import (DEFAULT_FRAMES, DEFAULT_SAMPLES, TAU_FLAT,
                             TAU_UNIT, check_count)
from quadfold.foldio import _mv_letters
from quadfold.units import _acceptance_residual
from quadfold.fixtures import (
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    square_grid_plan,
)

deg = math.radians


@pytest.fixture(scope="module")
def pat_a():
    return stitch(showcase_a_plan())


def _numbers_close(a, b, rel=5e-11):
    if isinstance(a, dict):
        assert set(a) == set(b)
        for k in a:
            _numbers_close(a[k], b[k], rel)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _numbers_close(x, y, rel)
    elif isinstance(a, float) or isinstance(b, float):
        assert math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-9)
    else:
        assert a == b


def _ff_plan(**edit):
    """Plan of one flat-foldable descriptor; a None value drops the key."""
    unit = {"kind": "flat_foldable", "alphas_deg": [80, 100, 60],
            "mode": "10a-2"}
    unit.update(edit)
    return {"columns": [[{k: v for k, v in unit.items() if v is not None}]]}


def _full_form_plan(**edit):
    """Plan of one full-form unit document with its keys edited."""
    unit = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_MINUS)
    return {"columns": [[dict(unit.to_json(), **edit)]]}


def _edge_of_kind(p, kind):
    """Index of the first edge of `kind` in the pattern's edge order."""
    return next(k for k, e in enumerate(p.edges()) if e[0] == kind)


def _crease_marked_boundary(p, doc):
    doc["edges_assignment"][_edge_of_kind(p, "col")] = "B"


def _boundary_folded(p, doc):
    k = _edge_of_kind(p, "boundary")
    doc["edges_assignment"][k] = "V"
    doc["edges_foldAngle"][k] = 30.0


def _boundary_angled(p, doc):
    doc["edges_foldAngle"][_edge_of_kind(p, "boundary")] = 30.0


def _flat_crease_angled(angle):
    def edit(p, doc):
        k = _edge_of_kind(p, "row")
        assert doc["edges_assignment"][k] == "F"
        doc["edges_foldAngle"][k] = angle
    return edit


def _edges_swapped(p, doc):
    edges = doc["edges_vertices"]
    edges[0], edges[1] = edges[1], edges[0]


def _edge_reversed(p, doc):
    doc["edges_vertices"][3].reverse()


def _edge_replaced(p, doc):
    doc["edges_vertices"][0] = [0, 7]


def _face_reversed(p, doc):
    doc["faces_vertices"][2].reverse()


def _angle_not_a_number(p, doc):
    doc["edges_foldAngle"][_edge_of_kind(p, "col")] = "30"


def _angle_not_finite(p, doc):
    k = _edge_of_kind(p, "row")
    doc["edges_assignment"][k] = "V"
    doc["edges_foldAngle"][k] = math.nan


def _grid_plan(**edit):
    """Plan of a 2x2 square grid with its top-level keys edited."""
    return dict(square_grid_plan(2, 2).to_json(), **edit)


def _reference_fmt(value) -> str:
    """`fold_dumps` as one isinstance chain, the reference for its type
    table."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise SerializationError(f"non-finite float {x!r} in document")
        s = "{:.12g}".format(x)
        return "0" if s == "-0" else s
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_reference_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_reference_fmt(str(k))}:{_reference_fmt(v)}"
                              for k, v in items) + "}"
    raise SerializationError(f"cannot serialize {type(value).__name__}")


class _Level(enum.IntEnum):
    LOW = 3


class _Float(float):
    pass


class _Str(str):
    pass


_DUMPS_VALUES = [
    True, False, 0, 7, -12, 2 ** 70, _Level.LOW,
    np.int64(-5), np.int32(3), np.uint8(200),
    1.5, 0.1, -0.0, 0.0, 1e-300, -2.5e17, 123456789.123456789, 1 / 3,
    _Float(2.25), np.float32(0.1), np.float64(-0.0), np.float32(-0.0),
    np.float64(1e-7),
    None,
    'a "quoted" back\\slash\nnew\tline \x01 \u00e9 \u2603', "", _Str("s"),
    np.str_("numpy"),
    (), [], (1, 2.5, "t"), [None, -0.0, (True, np.int64(4))],
    {}, {3: "a", 1: [True, None]}, {(1, 2): 1.0, (0, 5): 2.0},
    {2.5: "x", -1.0: "y"}, collections.OrderedDict([("b", 1), ("a", 2)]),
    {"a": [{"b": (1.0, [None, {"c": np.int64(2), "d": np.float32(-0.0)}])}],
     "e": {"f": {"g": ["h", 1e21, -1e-21]}}},
]


@pytest.mark.parametrize("value", _DUMPS_VALUES,
                         ids=[f"{k}-{type(v).__name__}"
                              for k, v in enumerate(_DUMPS_VALUES)])
def test_dumps_matches_the_isinstance_chain(value):
    """Every JSON type, numpy scalars, subclasses, -0 (written 0), escapes,
    non-str keys and nesting: the same text, top level and nested."""
    assert fold_dumps(value) == _reference_fmt(value)
    assert fold_dumps({"k": [value]}) == _reference_fmt({"k": [value]})


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, math.inf, np.float64("nan"), np.float32("inf"),
    _Float("-inf"), object(), {1, 2}, b"1", np.bool_(True), np.array([1.0]),
    1 + 2j, {1: "a", "b": 2}])
def test_dumps_refuses_as_the_isinstance_chain(value):
    """A non-finite float, a value of no JSON type and unorderable keys are
    refused with the chain's exception, type and message."""
    def outcome(dumps):
        with pytest.raises(Exception) as exc:
            dumps({"x": [value]})
        return type(exc.value), str(exc.value)

    got = outcome(fold_dumps)
    assert got == outcome(_reference_fmt)
    assert got[0] is SerializationError or isinstance(value, dict)


def test_documents_dump_as_the_isinstance_chain(pat_a):
    """Crease-pattern and folded-frame documents of showcase A."""
    frame = sweep(pat_a, None, 3, n_samples=40).frames[2]
    for doc in (export_fold(pat_a), export_fold(frame, pattern=pat_a)):
        assert fold_dumps(doc) == _reference_fmt(doc)


class TestFold:
    def test_export_builds_no_vertex(self, monkeypatch):
        """The plan block reads each unit's role-labelled sectors
        (`Unit.sector`) without building a vertex; it used to build one
        per unit, 56 on this blanket."""
        p = stitch(herringbone_plan(8, 8, 95, 72))
        built = []
        init = Vertex4.__init__

        def counted(self, alpha):
            built.append(alpha)
            init(self, alpha)

        monkeypatch.setattr(Vertex4, "__init__", counted)
        doc = export_fold(p)
        assert built == []
        assert len(doc["quadfold:plan"]["columns"]) == 8

    def test_roundtrip_twelve_digits(self, pat_a):
        s1 = fold_dumps(export_fold(pat_a))
        p2 = import_fold(s1)
        s2 = fold_dumps(export_fold(p2))
        _numbers_close(json.loads(s1), json.loads(s2))

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_dumps_refuses_a_non_finite_float(self, value):
        with pytest.raises(SerializationError, match="non-finite float"):
            fold_dumps({"x": [1.0, value]})

    @pytest.mark.parametrize("value, name", [
        ({1, 2}, "set"), (object(), "object"), (b"1", "bytes")])
    def test_dumps_refuses_a_value_it_cannot_serialize(self, value, name):
        with pytest.raises(SerializationError,
                           match=f"cannot serialize {name}$"):
            fold_dumps({"x": value})

    def test_export_refuses_a_frame_without_its_pattern(self, pat_a):
        state = realize(pat_a, propagate(build_tree(pat_a), deg(12), None))
        with pytest.raises(SerializationError,
                           match="folded frames need their pattern"):
            export_fold(state)
        with pytest.raises(SerializationError, match="cannot export int"):
            export_fold(42)

    def test_serialization_deterministic(self, pat_a):
        assert fold_dumps(export_fold(pat_a)) == fold_dumps(export_fold(pat_a))

    def test_crease_pattern_fields(self, pat_a):
        doc = export_fold(pat_a)
        n_pts = (pat_a.m + 2) * (pat_a.n + 2)
        assert len(doc["vertices_coords"]) == n_pts
        assert len(doc["faces_vertices"]) == (pat_a.m + 1) * (pat_a.n + 1)
        assert all(len(f) == 4 for f in doc["faces_vertices"])
        assert doc["frame_classes"] == ["creasePattern"]
        # trivial export: interior creases flat, ring is boundary
        assert set(doc["edges_assignment"]) == {"B", "F"}

    def test_folded_frame_exports_its_own_angles(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(12), None)
        state = realize(pat_a, prop)
        doc = export_fold(state, pattern=pat_a)
        assert doc == export_fold(state, pattern=pat_a, angles=prop)
        assert "V" in doc["edges_assignment"]
        assert "M" in doc["edges_assignment"]

    def test_mv_letters_match_angle_signs(self, pat_a):
        tree = build_tree(pat_a)
        prop = propagate(tree, deg(12), None)
        state = realize(pat_a, prop)
        mv = mv_assignment(pat_a, None, deg(12))
        doc = export_fold(state, pattern=pat_a, angles=prop, mv=mv)
        assert doc["frame_classes"] == ["foldedForm"]
        for letter, angle in zip(doc["edges_assignment"],
                                 doc["edges_foldAngle"]):
            if letter == "V":
                assert angle > 0
            elif letter == "M":
                assert angle < 0
            else:
                assert angle == 0.0

    def test_derived_letters_match_mv_assignment(self, pat_a):
        """export_fold without `mv` labels creases as mv_assignment does."""
        grid = stitch(square_grid_plan(2, 2))  # only its top row folds
        for p, t in ((pat_a, deg(12)), (pat_a, deg(-7)), (grid, deg(40))):
            state = realize(p, propagate(build_tree(p), t, None))
            mv = mv_assignment(p, None, t)
            doc = export_fold(state, pattern=p)
            assert doc["edges_assignment"] == [mv[(a, b)]
                                               for _, a, b in p.edges()]
        assert set(doc["edges_assignment"]) == {"B", "F", "V"}

    def test_export_refuses_angles_of_another_pattern(self):
        """Angles that do not solve the pattern's grid, larger or smaller,
        are refused with both shapes named, as frames of the wrong shape
        are."""
        small = stitch(herringbone_plan(4, 4))
        large = stitch(herringbone_plan(8, 8))
        for p, q in ((small, large), (large, small)):
            prop = propagate(build_tree(p), 0.3)
            state = realize(p, prop)
            other = propagate(build_tree(q), 0.3)
            named = (f"propagation's grid is {q.m}x{q.n}; the pattern is "
                     f"{p.m}x{p.n}")
            for call in (lambda: export_fold(state, pattern=p, angles=other),
                         lambda: export_fold(p, angles=other)):
                with pytest.raises(SerializationError, match=named):
                    call()

    def test_import_checks_indices(self, pat_a):
        doc = export_fold(pat_a)
        doc["edges_vertices"][0] = [0, 10 ** 6]
        with pytest.raises(SerializationError):
            import_fold(doc)

    def test_import_checks_sign_consistency(self, pat_a):
        doc = export_fold(pat_a)
        k = doc["edges_assignment"].index("F")
        doc["edges_assignment"][k] = "V"
        doc["edges_foldAngle"][k] = -10.0
        with pytest.raises(SerializationError):
            import_fold(doc)

    def test_import_requires_plan_block(self, pat_a):
        doc = export_fold(pat_a)
        del doc["quadfold:plan"]
        with pytest.raises(SerializationError):
            import_fold(doc)

    @pytest.mark.parametrize("text, named", [
        ("5", "JSON object, got int"),
        ("null", "JSON object, got NoneType"),
        ("[]", "JSON object, got list"),
        ('{"vertices_coords": [', "not a JSON document"),
    ])
    def test_import_refuses_a_non_object(self, text, named):
        with pytest.raises(SerializationError, match=named):
            import_fold(text)

    @pytest.mark.parametrize("edit, named", [
        ({"boundary": 2.0}, "'boundary'"),
        ({"top_length": [1.0]}, "'top_length'"),
    ])
    def test_import_refuses_an_unknown_plan_key(self, pat_a, edit, named):
        """The quadfold:plan block is read whole: a key it does not define
        is refused by name, not dropped."""
        doc = export_fold(pat_a)
        doc["quadfold:plan"].update(edit)
        with pytest.raises(ValidationFailed, match=named):
            import_fold(doc)

    def test_import_keeps_fold_top_level_keys(self, pat_a):
        """FOLD's own top-level keys are FOLD's; import reads the pattern
        from the plan and leaves them alone."""
        doc = dict(export_fold(pat_a), file_author="someone",
                   frame_title="a title")
        p = import_fold(doc)
        assert fold_dumps(export_fold(p)) == fold_dumps(export_fold(pat_a))

    @pytest.mark.parametrize("letter", ["X", "B", "v"])
    def test_export_refuses_a_crease_letter_outside_mvf(self, pat_a, letter):
        """A crease takes M, V or F, keyed either way round; only a boundary
        edge is B."""
        _, a, b = next(e for e in pat_a.edges() if e[0] != "boundary")
        for key in ((a, b), (b, a)):
            with pytest.raises(SerializationError,
                               match=re.escape(f"crease {a}-{b}")):
                export_fold(pat_a, {key: letter})

    def test_import_refuses_an_assignment_outside_bmvf(self, pat_a):
        doc = export_fold(pat_a)
        k = doc["edges_assignment"].index("F")
        doc["edges_assignment"][k] = "X"
        with pytest.raises(SerializationError,
                           match=re.escape(f"edges_assignment[{k}]")):
            import_fold(doc)

    def test_import_reads_a_nearly_flat_f(self, pat_a):
        doc = export_fold(pat_a)
        _flat_crease_angled(0.5 * math.degrees(TAU_FLAT))(pat_a, doc)
        _boundary_angled(pat_a, doc)
        doc["edges_foldAngle"][_edge_of_kind(pat_a, "boundary")] = -0.0
        assert import_fold(doc).grid.shape == pat_a.grid.shape

    def test_export_refuses_a_folded_f(self, pat_a):
        """An `mv` override holds to import's rule: F only on a crease
        folded less than TAU_FLAT."""
        prop = propagate(build_tree(pat_a), deg(12), None)
        state = realize(pat_a, prop)
        kind, a, b = next(e for e in pat_a.edges() if e[0] != "boundary"
                          and abs(prop.edge_angle(*e)) > 0.01)
        with pytest.raises(SerializationError, match="assignment F "
                           "contradicts fold angle"):
            export_fold(state, {(a, b): "F"}, pattern=pat_a)
        flat = export_fold(pat_a, {(a, b): "F"})
        assert import_fold(flat).grid.shape == pat_a.grid.shape

    def test_export_refuses_a_frame_of_another_pattern(self, pat_a):
        """A 4x4 herringbone frame exported with showcase A (3x3) as its
        pattern is refused, naming both shapes; with a pattern of its own
        shape it exports as before."""
        own = stitch(herringbone_plan(4, 4))
        state = sweep(own, n_frames=3).frames[1]
        with pytest.raises(SerializationError,
                           match=re.escape("(6, 6, 3); the 3x3 pattern "
                                           "needs (5, 5, 3)")):
            export_fold(state, pattern=pat_a)
        doc = fold_dumps(export_fold(state, pattern=own))
        assert doc == fold_dumps(export_fold(
            state, pattern=stitch(herringbone_plan(4, 4))))

    def test_every_exported_frame_imports(self):
        """What export writes, import reads: every frame of the showcase
        sweeps."""
        for plan in (showcase_a_plan(), showcase_b_plan()):
            p = stitch(plan)
            for state in sweep(p, None, 12, n_samples=40).frames:
                doc = fold_dumps(export_fold(state, pattern=p))
                assert import_fold(doc).grid.shape == p.grid.shape

    def test_import_requires_core_fields(self):
        with pytest.raises(SerializationError):
            import_fold({"vertices_coords": []})

    def test_import_refuses_a_with_vertex_export(self, pat_a):
        """A perturbed pattern has no plan to rebuild it from, so its export
        cannot come back as the unbroken pattern."""
        a = list(pat_a.vertex(1, 1).alpha)
        a[0] += deg(0.5)
        a[2] -= deg(0.5)
        bad = pat_a.with_vertex(1, 1, Vertex4(a))
        assert not certify(bad, None, 60).verdict
        doc = export_fold(bad)
        assert "quadfold:plan" not in doc
        with pytest.raises(SerializationError, match="quadfold:plan"):
            import_fold(fold_dumps(doc))

    def test_relayout_roundtrips_to_twelve_digits(self, pat_a):
        q = pat_a.relayout(PlanLengths(top=(2.0, 0.5)))
        s1 = fold_dumps(export_fold(q))
        s2 = fold_dumps(export_fold(import_fold(s1)))
        _numbers_close(json.loads(s1), json.loads(s2))

    @pytest.mark.parametrize("key, value", [
        ("quadfold:grid", [7, 1]),
        ("quadfold:grid", [3, 4]),
        ("vertices_coords", []),
        ("vertices_coords", [[0.0, 0.0]] * 24),
        ("edges_vertices", []),
        ("edges_vertices", [[0, 1]] * 41),
        ("faces_vertices", []),
        ("faces_vertices", [[0, 5, 6, 1]] * 15),
        ("edges_assignment", []),
        ("edges_assignment", ["B"] * 39),
        ("edges_foldAngle", []),
        ("edges_foldAngle", [0] * 41),
    ])
    def test_import_refuses_structure_unlike_the_plan(self, pat_a, key,
                                                      value):
        doc = export_fold(pat_a)
        import_fold(doc)
        with pytest.raises(SerializationError, match=key):
            import_fold(dict(doc, **{key: value}))


    @pytest.mark.parametrize("k, entry, named", [
        (0, ["a", "b"], r"vertices_coords\[0\] is \['a', 'b'\]"),
        (3, [], r"vertices_coords\[3\] is \[\]"),
        (7, [math.nan, 0.0], r"vertices_coords\[7\] is \[nan, 0.0\]"),
        (2, [math.inf, 0.0], r"vertices_coords\[2\] is \[inf, 0.0\]"),
        (4, [True, 0.0], r"vertices_coords\[4\] is \[True, 0.0\]"),
        (5, [0.0, 1.0, 2.0, 3.0], r"vertices_coords\[5\] is \[0.0, 1.0"),
        (6, "0.0, 1.0", r"vertices_coords\[6\] is '0.0, 1.0'"),
        (1, [0.0, 1.0, 0.0],
         r"vertices_coords\[1\] is \[0.0, 1.0, 0.0\]; expected 2 or 3 "
         r"finite numbers, as many as vertices_coords\[0\] holds"),
    ])
    def test_import_checks_each_coordinate_entry(self, pat_a, k, entry,
                                                 named):
        """Each vertex is a list of 2 or 3 finite numbers, not booleans,
        and all vertices have one length; the first bad entry is named."""
        doc = export_fold(pat_a)
        doc["vertices_coords"][k] = entry
        with pytest.raises(SerializationError, match=named):
            import_fold(json.dumps(doc))  # fold_dumps would refuse NaN

    def test_import_reads_three_dimensional_coordinates(self, pat_a):
        doc = export_fold(pat_a)
        doc["vertices_coords"] = [[x, y, 0] for x, y in doc["vertices_coords"]]
        assert import_fold(doc).grid.shape == pat_a.grid.shape

    @pytest.mark.parametrize("edit, named", [
        (_crease_marked_boundary,
         r"edges_assignment\[\d+\] is 'B' on crease"),
        (_boundary_folded,
         r"edges_assignment\[\d+\] is 'V' on boundary edge"),
        (_boundary_angled,
         r"edges_foldAngle\[\d+\] is 30.0 on boundary edge .* does not fold"),
        (_flat_crease_angled(30.0),
         r"edges_assignment\[\d+\] F on crease \[\d+, \d+\] contradicts "
         r"edges_foldAngle\[\d+\] 30.0"),
        (_flat_crease_angled(-170.0),
         r"F on crease .* contradicts edges_foldAngle\[\d+\] -170.0"),
        (_flat_crease_angled(-math.degrees(TAU_FLAT)),
         r"F on crease .* contradicts edges_foldAngle"),
        (_edges_swapped, re.escape("edges_vertices[0]")),
        (_edge_reversed, re.escape("edges_vertices[3]")),
        (_edge_replaced, re.escape("edges_vertices[0] is [0, 7]")),
        (_face_reversed, re.escape("faces_vertices[2]")),
        (_angle_not_a_number, r"edges_foldAngle\[\d+\] is '30' on crease"),
        (_angle_not_finite, r"edges_foldAngle\[\d+\] is nan on crease"),
    ])
    def test_import_refuses_edges_unlike_the_plan(self, pat_a, edit, named):
        """The plan's own export defines the edges and faces: a document
        must list the same ones, in the same order and direction, with B
        exactly on its boundary edges, M, V or F on its creases and a
        finite fold angle on each."""
        doc = export_fold(pat_a)
        edit(pat_a, doc)
        with pytest.raises(SerializationError, match=named):
            import_fold(json.dumps(doc))  # fold_dumps would refuse NaN


class TestObj:
    def test_quads_and_determinism(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(10), None)
        state = realize(pat_a, prop)
        obj = export_obj(state, pat_a)
        assert obj == export_obj(state, pat_a)
        v_lines = [l for l in obj.splitlines() if l.startswith("v ")]
        f_lines = [l for l in obj.splitlines() if l.startswith("f ")]
        assert len(v_lines) == (pat_a.m + 2) * (pat_a.n + 2)
        assert len(f_lines) == (pat_a.m + 1) * (pat_a.n + 1)
        assert all(len(l.split()) == 5 for l in f_lines)

    def test_zero_area_refused(self):
        p = stitch(square_grid_plan(2, 2))
        prop = propagate(build_tree(p), 0.0, None)
        state = realize(p, prop)
        squashed = state.coords.copy()
        squashed[0, 0] = squashed[0, 1] = squashed[1, 0] = squashed[1, 1]
        from dataclasses import replace
        bad = replace(state, coords=squashed)
        with pytest.raises(SerializationError):
            export_obj(bad, p)

    @pytest.mark.parametrize("length", [1e-6, 1e-9])
    @pytest.mark.parametrize("plan", [herringbone_plan, showcase_a_plan])
    def test_tiny_creases_export(self, plan, length):
        """The zero-area bound scales with the face: a blanket relaid with
        every crease `length` long sweeps, verifies and exports each frame."""
        p = stitch(plan())
        tiny = p.relayout(PlanLengths(top=(length,) * (p.n - 1),
                                      left=(length,) * (p.m - 1),
                                      boundary=length))
        for state in sweep(tiny, n_frames=4).frames:
            obj = export_obj(state, tiny)
            f_lines = [l for l in obj.splitlines() if l.startswith("f ")]
            assert len(f_lines) == (p.m + 1) * (p.n + 1)

    def test_frame_of_another_pattern_refused(self, pat_a):
        """A 4x4 herringbone frame exported with showcase A (3x3) as its
        pattern is refused, naming both shapes; with a pattern of its own
        shape it exports as before."""
        own = stitch(herringbone_plan(4, 4))
        state = sweep(own, n_frames=3).frames[1]
        with pytest.raises(SerializationError,
                           match=re.escape("(6, 6, 3); the 3x3 pattern "
                                           "needs (5, 5, 3)")):
            export_obj(state, pat_a)
        assert (export_obj(state, stitch(herringbone_plan(4, 4)))
                == export_obj(state, own))

    def test_non_finite_coordinates_refused(self):
        p = stitch(square_grid_plan(2, 2))
        state = realize(p, propagate(build_tree(p), 0.0, None))
        coords = state.coords.copy()
        coords[1, 1, 2] = math.nan
        from dataclasses import replace
        with pytest.raises(SerializationError, match="non-finite"):
            export_obj(replace(state, coords=coords), p)


class TestSvg:
    def test_colors(self, pat_a):
        mv = mv_assignment(pat_a, None, deg(12))
        svg = export_svg(pat_a, mv)
        assert "#d62728" in svg  # mountain
        assert "#1f77b4" in svg  # valley
        assert "#000000" in svg  # boundary
        assert svg.startswith("<?xml")

    def test_flat_pattern_grey(self, pat_a):
        svg = export_svg(pat_a)
        assert "#999999" in svg
        assert "#d62728" not in svg

    def test_refuses_a_crease_letter_outside_mvf(self, pat_a):
        _, a, b = next(e for e in pat_a.edges() if e[0] != "boundary")
        with pytest.raises(SerializationError,
                           match=re.escape(f"crease {a}-{b}")):
            export_svg(pat_a, {(a, b): "X"})


    def test_refuses_a_pattern_without_inner_vertices(self):
        """No pattern without inner vertices reaches `export_svg`:
        `QuadPattern` refuses one when it is built."""
        with pytest.raises(NotABlanket,
                           match="^pattern has no inner vertices$"):
            QuadPattern(0, 0, (), (), None, np.zeros((2, 2, 2)), ())


class TestMvKeys:
    """Both exports refuse an `mv` entry they would otherwise drop, naming
    it; `mv_assignment`'s own output, B on every boundary edge, exports as
    the same map without its boundary entries."""

    EXPORTS = [export_svg, export_fold]

    @pytest.mark.parametrize("export", EXPORTS)
    def test_refuses_a_key_that_names_no_edge(self, pat_a, export):
        key = ((9, 9), (9, 10))
        with pytest.raises(SerializationError,
                           match=re.escape(f"mv key {key!r} names no edge "
                                           "of the 3x3 pattern")):
            export(pat_a, {key: "M"})
        _, a, b = next(e for e in pat_a.edges() if e[0] != "boundary")
        with pytest.raises(SerializationError, match="names no edge"):
            export(pat_a, {(a, (b[0] + 1, b[1])): "M"})

    @pytest.mark.parametrize("export", EXPORTS)
    def test_refuses_a_boundary_letter_other_than_b(self, pat_a, export):
        _, a, b = next(e for e in pat_a.edges() if e[0] == "boundary")
        for key in ((a, b), (b, a)):
            for letter in ("M", "F", None):
                with pytest.raises(SerializationError,
                                   match=re.escape(f"boundary edge {a}-{b} "
                                                   f"is assigned {letter!r}")):
                    export(pat_a, {key: letter})

    @pytest.mark.parametrize("export", EXPORTS)
    def test_refuses_two_letters_for_one_edge(self, pat_a, export):
        _, a, b = next(e for e in pat_a.edges() if e[0] != "boundary")
        with pytest.raises(SerializationError,
                           match=re.escape(f"edge {a}-{b} is assigned both")):
            export(pat_a, {(a, b): "F", (b, a): "M"})
        assert export(pat_a, {(a, b): "F", (b, a): "F"}) == export(
            pat_a, {(a, b): "F"})

    @staticmethod
    def _single_faults(p):
        """(map, message) for one map per fault `_mv_letters` refuses."""
        _, a, b = next(e for e in p.edges() if e[0] != "boundary")
        _, c, d = next(e for e in p.edges() if e[0] == "boundary")
        key = ((9, 9), (9, 10))
        return [
            ({key: "M"}, f"mv key {key!r} names no edge of the 3x3 pattern"),
            ({(d, c): "V"}, f"boundary edge {c}-{d} is assigned 'V'; a "
                            "boundary edge takes B"),
            ({(b, a): "X"}, f"crease {a}-{b} is assigned 'X'; a crease "
                            "takes M, V or F"),
            ({(a, b): "F", (b, a): "M"},
             f"edge {a}-{b} is assigned both 'F' and 'M'"),
        ]

    @pytest.mark.parametrize("fault", range(4),
                             ids=["no-edge", "boundary", "crease", "two"])
    def test_each_single_fault_is_refused_by_both_exports(self, pat_a,
                                                          fault):
        """One check decides every key: a map with one fault is refused by
        both exports, of a pattern and of a frame, with one message."""
        mv, message = self._single_faults(pat_a)[fault]
        state = realize(pat_a, propagate(build_tree(pat_a), deg(12), None))
        for export in (export_svg, export_fold,
                       lambda p, mv: export_fold(state, mv, pattern=p)):
            with pytest.raises(SerializationError) as exc:
                export(pat_a, mv)
            assert str(exc.value) == message

    def test_the_first_faulty_key_is_named(self, pat_a):
        """The map is checked once, in its own order: a crease letter
        outside M, V and F keyed ahead of a key that names no edge is the
        fault named."""
        faults = self._single_faults(pat_a)
        (unknown, _), (bad_letter, message) = faults[0], faults[2]
        for export in (export_svg, export_fold):
            with pytest.raises(SerializationError) as exc:
                export(pat_a, {**bad_letter, **unknown})
            assert str(exc.value) == message

    def test_letters_are_keyed_as_edges_gives_them(self, pat_a):
        """Each letter is keyed as `edges()` gives its edge, whichever way
        round the map keys it; a crease keyed to None keeps no letter of
        its own and exports as if absent."""
        creases = [(a, b) for kind, a, b in pat_a.edges()
                   if kind != "boundary"]
        boundary = next((a, b) for kind, a, b in pat_a.edges()
                        if kind == "boundary")
        (a, b), (c, d) = creases[:2]
        mv = {(b, a): "M", (c, d): "V", boundary[::-1]: "B"}
        assert _mv_letters(pat_a, mv) == {(a, b): "M", (c, d): "V",
                                          boundary: "B"}
        assert _mv_letters(pat_a, None) == {}
        assert export_svg(pat_a, {(b, a): None}) == export_svg(pat_a)
        assert export_fold(pat_a, {(b, a): None}) == export_fold(pat_a)

    def test_mv_assignment_exports_as_its_creases(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(12), None)
        state = realize(pat_a, prop)
        mv = mv_assignment(pat_a, None, deg(12))
        assert "B" in mv.values()
        creases = {k: v for k, v in mv.items() if v != "B"}
        assert export_svg(pat_a, mv) == export_svg(pat_a, creases)
        assert (fold_dumps(export_fold(state, mv, pattern=pat_a))
                == fold_dumps(export_fold(state, creases, pattern=pat_a)))


class TestCli:
    @pytest.mark.parametrize("least", [1, 2])
    def test_count_flag_rule_is_check_count(self, least):
        """A count flag takes the text an integer parses from exactly when
        `check_count` accepts that integer, and keeps argparse's message."""
        count = _count_at_least(least)
        for text in ("0", "1", "2", " 3 ", "+4", "-2", "007", "2.5", "x", "",
                     "1e3", "True"):
            try:
                value = int(text)
                check_count(value, least, "")
            except ValueError:
                with pytest.raises(argparse.ArgumentTypeError) as exc:
                    count(text)
                assert str(exc.value) == (f"must be an integer >= {least}, "
                                          f"got {text!r}")
            else:
                assert count(text) == value

    def test_vertex_solve(self, capsys):
        rc = main(["vertex", "solve", "--alphas", "80,95,75,110",
                   "--rho1", "60", "--branch", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rho_deg: 60 -6.0058" in out

    @pytest.mark.parametrize("alphas, rho1, branch, xi_deg", [
        ("80,95,75,110", "60", "1", "120.375477743"),
        ("70,80,100,110", "-30", "2", "137.90574765"),
    ])
    def test_vertex_solve_prints_xi_of_rho1(self, alphas, rho1, branch,
                                            xi_deg, capsys):
        """xi is xi_of(vertex, rho1), printed to 12 digits."""
        rc = main(["vertex", "solve", "--alphas", alphas, "--rho1", rho1,
                   "--branch", branch])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"xi_deg: {xi_deg}\n" in out

    def test_vertex_solve_refuses_in_degrees(self, capsys):
        """A driving angle beyond the fold interval is refused in degrees,
        with the interval `vertex interval` prints."""
        alphas = ["--alphas", "80,95,75,110", "--branch", "2"]
        assert main(["vertex", "interval", *alphas]) == 0
        interval = capsys.readouterr().out.split("interval_deg: ")[1].strip()
        assert interval == "[-47.8441006027, 47.8441006027]"
        assert main(["vertex", "solve", "--rho1", "60", *alphas]) == 1
        assert capsys.readouterr().err == (
            f"error: rho1 60 deg outside the fold interval {interval} deg of "
            "branch 2\n")

    def test_vertex_solve_refuses_a_segment_that_keeps_c1_flat(self, capsys):
        """On a segment whose rho1 is identically 0 the fold interval is
        [0, 0]: a nonzero rho1 is refused as outside it, and 0 still
        solves to the flat state."""
        alphas = ["--alphas", "90,90,90,90", "--branch", "line2"]
        assert main(["vertex", "interval", *alphas]) == 0
        assert "interval_deg: [0, 0]\n" in capsys.readouterr().out
        assert main(["vertex", "solve", "--rho1", "20", *alphas]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: rho1 20 deg outside the fold interval [0, 0] deg of "
            "branch line2\n")
        assert main(["vertex", "solve", "--rho1", "0", *alphas]) == 0
        assert "rho_deg: 0 0 0 0\n" in capsys.readouterr().out

    def test_vertex_interval(self, capsys):
        rc = main(["vertex", "interval", "--alphas", "80,95,75,110",
                   "--branch", "1"])
        assert rc == 0
        assert "interval_deg" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["vertex", "solve", "--rho1", "20", "--branch", "1"],
        ["vertex", "interval", "--branch", "1"],
    ])
    def test_near_collinear_warnings_on_stderr(self, argv, capsys):
        """`classify`'s near-collinear warnings go to stderr, one
        `warning:` line each; stdout and the exit code are unchanged."""
        near = main([*argv, "--alphas", "80,100.00001,80,99.99999"])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: a2+a3 (creases c1,c3) misses pi by 1.745e-07; "
            "not snapped",
            "warning: a3+a4 (creases c2,c4) misses pi by -1.745e-07; "
            "not snapped",
        ]
        assert near == 0
        if argv[1] == "solve":
            assert captured.out.startswith("class: generic\nbranch: 1\n")
        else:
            assert captured.out.startswith("branch: 1\ninterval_deg: ")
        assert main([*argv, "--alphas", "80,95,75,110"]) == 0
        assert capsys.readouterr().err == ""

    def test_unit_solve_ff(self, capsys):
        rc = main(["unit", "solve-ff", "--alphas", "80,100,60",
                   "--mode", "10a-1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("alpha4_deg: 78.7033")
        assert '"sector_deg"' in out

    def test_unit_validate(self, tmp_path, capsys):
        main(["unit", "solve-ff", "--alphas", "80,100,60", "--mode", "10a-1"])
        unit_json = capsys.readouterr().out.splitlines()[1]
        f = tmp_path / "unit.json"
        f.write_text(unit_json)
        rc = main(["unit", "validate", str(f), "--samples", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid" in out

    def test_unit_validate_decides_as_stitch(self, tmp_path, capsys):
        """An A- unit whose bottom sectors moved by d = 1.386e-9 reads
        below TAU_UNIT at 64 samples, but its exact residual, 1.002e-8,
        is above it and `stitch` refuses it: `unit validate` prints the
        sampled value, adds the exact one and exits 1.  At 200 samples
        both say INVALID, and an unmoved unit is valid, with no extra
        line."""
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_MINUS)
        a1, a2, a3, a4 = u.bottom.alpha
        d = 1.386e-9
        moved = replace(u, bottom=Vertex4((a1 - d, a2 + d, a3 + d, a4 - d)))
        with pytest.raises(ValidationFailed):
            stitch(StitchPlan(columns=((moved,),)))
        runs = {}
        for name, unit in (("moved", moved), ("plain", u)):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(unit.to_json()))
            for samples in ("64", "200"):
                rc = main(["unit", "validate", str(f), "--samples", samples])
                runs[name, samples] = rc, capsys.readouterr().out
        assert runs["moved", "64"] == (1, (
            "samples: 64\nmax_residual: 9.917e-09\n"
            "exact max_residual: 1.002e-08\nINVALID\n"))
        assert runs["moved", "200"] == (1, (
            "samples: 200\nmax_residual: 1.002e-08\nINVALID\n"))
        for samples in ("64", "200"):
            rc, out = runs["plain", samples]
            assert rc == 0 and out.endswith("\nvalid\n")
            assert "exact" not in out

    def test_sampled_unit_validate_decides_as_stitch(self, tmp_path, capsys):
        """A unit of two generic vertices, so sampled, whose residual is
        9.939e-9 at 33 samples but 1.001e-8 at 64, 200 and 500: `unit
        validate` exits as `pattern stitch` of its one-unit plan does at
        every `--samples`, and `stitch`, `valid_branch_pairs` and the
        acceptance residual agree in the library."""
        u = Unit(top=Vertex4((1.0487673900869332, 1.841195053869466,
                              1.5872927501457519, 1.805930113077436)),
                 bottom=Vertex4((1.8059301155697016, 1.5872927501457519,
                                 1.8411950513772002, 1.0487673900869332)),
                 branch_top=BranchId.BRANCH_2, branch_bottom=BranchId.BRANCH_2,
                 signs=(1, 1))
        assert Unit.from_json(u.to_json()) == u
        assert validate_unit(u, 33).valid()
        assert not validate_unit(u, 64).valid()
        unit_file = tmp_path / "unit.json"
        unit_file.write_text(json.dumps(u.to_json()))
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"columns": [[u.to_json()]]}))

        stitched = main(["pattern", "stitch", str(plan_file),
                         "-o", str(tmp_path / "u.fold")])
        capsys.readouterr()
        assert stitched == 0
        assert main(["unit", "validate", str(unit_file)]) == stitched
        assert capsys.readouterr().out == (
            "samples: 200\nmax_residual: 1.001e-08\n"
            "33-sample max_residual: 9.939e-09\nvalid\n")
        assert main(["unit", "validate", str(unit_file),
                     "--samples", "500"]) == stitched
        assert capsys.readouterr().out.endswith("\nvalid\n")

        stitch(StitchPlan(columns=((u,),)))
        assert (u.branch_top, u.branch_bottom, u.signs) in \
            valid_branch_pairs(u)
        assert _acceptance_residual(u) < TAU_UNIT

    def test_pattern_pipeline(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(showcase_a_plan().to_json()))

        rc = main(["pattern", "count", str(plan_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 + 3 + 2 - 2 = 5; branches 1" in out

        fold_file = tmp_path / "a.fold"
        rc = main(["pattern", "stitch", str(plan_file), "-o", str(fold_file)])
        assert rc == 0
        capsys.readouterr()

        rc = main(["pattern", "certify", str(fold_file), "--samples", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rigid-foldable: yes" in out

        svg_file = tmp_path / "a.svg"
        rc = main(["pattern", "svg", str(fold_file), "-o", str(svg_file),
                   "--rho", "10"])
        assert rc == 0
        capsys.readouterr()
        assert svg_file.read_text().startswith("<?xml")

        out_dir = tmp_path / "frames"
        rc = main(["pattern", "sweep", str(fold_file), "--frames", "4",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        capsys.readouterr()
        assert sorted(os.listdir(out_dir)) == [
            "frame_000.obj", "frame_001.obj", "frame_002.obj", "frame_003.obj"
        ]

    @pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
    def test_svg_refuses_a_non_finite_rho(self, rho, tmp_path, capsys):
        """A non-finite driving angle is an error line and exit code 1,
        and no drawing is written."""
        fold_file = tmp_path / "a.fold"
        fold_file.write_text(fold_dumps(export_fold(stitch(
            showcase_a_plan()))))
        svg_file = tmp_path / "a.svg"
        rc = main(["pattern", "svg", str(fold_file), "-o", str(svg_file),
                   f"--rho={rho}"])
        assert rc == 1
        assert "cannot fold by" in capsys.readouterr().err
        assert not svg_file.exists()

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        # a plan with mismatched columns fails with exit code 1
        from quadfold import Vertex4, make_straightline_unit
        u1 = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        u2 = make_straightline_unit(Vertex4.from_degrees((95, 85, 75, 105)))
        plan_file = tmp_path / "bad.json"
        plan_file.write_text(json.dumps(
            {"columns": [[u1.to_json()], [u2.to_json()]]}
        ))
        fold_file = tmp_path / "bad.fold"
        rc = main(["pattern", "stitch", str(plan_file), "-o", str(fold_file)])
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("argv, named", [
        (["pattern", "stitch", "{bad}", "-o", "{out}"], "is not JSON"),
        (["pattern", "count", "{bad}"], "is not JSON"),
        (["pattern", "certify", "{bad}"], "is not JSON"),
        (["unit", "validate", "{bad}"], "is not JSON"),
        (["pattern", "certify", "{dir}"], "Is a directory"),
        (["pattern", "svg", "{dir}", "-o", "{out}"], "Is a directory"),
        (["pattern", "count", "{missing}"], "No such file"),
    ])
    def test_unreadable_input_is_refused(self, argv, named, tmp_path,
                                         capsys):
        """A file that is not JSON, a directory or a missing file gives an
        error line and exit code 1, never a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"columns": [')
        paths = {"bad": str(bad), "dir": str(tmp_path),
                 "missing": str(tmp_path / "missing.json"),
                 "out": str(tmp_path / "out.fold")}
        rc = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("argv", [
        ["vertex", "solve", "--alphas", "80,95,x,110", "--rho1", "10",
         "--branch", "1"],
        ["vertex", "interval", "--alphas", "80,95, x ,110", "--branch", "1"],
        ["unit", "solve-ff", "--alphas", "80,x,60", "--mode", "10a-1"],
    ])
    def test_non_numeric_angle_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "angle 'x' is not a number" in err and "Traceback" not in err

    def test_unit_validate_refuses_an_unknown_key(self, tmp_path, capsys):
        """A unit document with the typo `sign` is refused, naming it,
        instead of validating with the default signs."""
        doc = solve_ff_unit(deg(80), deg(100), deg(60),
                            FFUnitMode.A_PLUS).to_json()
        doc["sign"] = doc.pop("signs")
        f = tmp_path / "unit.json"
        f.write_text(json.dumps(doc))
        rc = main(["unit", "validate", str(f)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "unknown key 'sign'" in err
        with pytest.raises(ValidationFailed, match="'sign'"):
            Unit.from_json(doc)

    @pytest.mark.parametrize("argv, usage, message", [
        (["vertex", "interval", "--alphas", "80,,95,75,110,", "--branch",
          "1"], "vertex interval",
         "empty angle entry in --alphas '80,,95,75,110,'"),
        (["vertex", "interval", "--alphas", "80,95,75", "--branch", "1"],
         "vertex interval", "expected 4 comma-separated angles, got 3"),
        (["vertex", "interval", "--alphas", "80,95,x,110", "--branch", "1"],
         "vertex interval", "angle 'x' is not a number"),
        (["vertex", "solve", "--alphas", "80,95,75", "--rho1", "10",
          "--branch", "1"],
         "vertex solve", "expected 4 comma-separated angles, got 3"),
        (["pattern", "certify", "{fold}", "--branches", "1,1,1;1,1,1"],
         "pattern certify", "branch spec needs 3 column groups, got 2"),
        (["pattern", "certify", "{fold}", "--branches", "1,1,1;1,1;1,1,1"],
         "pattern certify", "each column group needs 3 branch tokens"),
        (["pattern", "certify", "{fold}", "--branches",
          "1,1,1,1;1,1,1;1,1,1"],
         "pattern certify", "each column group needs 3 branch tokens"),
    ], ids=["alphas-empty", "alphas-count", "alphas-not-a-number",
            "solve-alphas-count", "branches-groups", "branches-short-group",
            "branches-long-group"])
    def test_parse_error_prints_the_subcommand_usage(self, argv, usage,
                                                     message, tmp_path,
                                                     capsys):
        """A flag read after parsing (`--alphas`, `--branches`) is refused
        through the subcommand that owns it: its usage line, then the
        message, exit code 2."""
        fold = str(self._fold_file(tmp_path, showcase_a_plan()))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([a.format(fold=fold) for a in argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith(f"usage: quadfold {usage} [-h]")
        assert err.endswith(f"quadfold {usage}: error: {message}\n")

    def test_unit_validate_notes_a_degenerate_shared_crease(self, tmp_path,
                                                            capsys):
        """A square-grid unit's line motion keeps its connecting crease
        flat; `unit validate` says so and validates it through the side
        creases."""
        unit_file = tmp_path / "unit.json"
        unit_file.write_text(json.dumps(
            square_grid_plan().columns[0][0].to_json()))
        assert main(["unit", "validate", str(unit_file), "--samples",
                     "5"]) == 0
        assert capsys.readouterr().out == (
            "samples: 5\nmax_residual: 0.000e+00\n"
            "note: connecting crease stays flat on this branch pair; "
            "validated through the side creases\nvalid\n")

    @pytest.mark.parametrize("token", [
        "branch1", "b1", "branch2", "b2", "ls1", "ls2"])
    def test_dropped_branch_spellings_are_refused(self, token, capsys):
        """Only a `BranchId` value or `line` names a branch: the library,
        a unit document's `branches` and `--branch` refuse the rest."""
        with pytest.raises(ValueError, match="unknown branch token"):
            BranchId.from_token(token)
        doc = solve_ff_unit(deg(80), deg(100), deg(60),
                            FFUnitMode.A_PLUS).to_json()
        del doc["mode"]
        with pytest.raises(ValidationFailed,
                           match=f"branches: unknown branch token '{token}'"):
            Unit.from_json(dict(doc, branches=["1", token]))
        with pytest.raises(SystemExit) as exc:
            main(["vertex", "interval", "--alphas", "80,95,75,110",
                  "--branch", token])
        assert exc.value.code == 2
        assert (f"argument --branch: unknown branch token '{token}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", list(FFUnitMode), ids=lambda m: m.value)
    def test_mode_flag_spells_as_from_token(self, mode, capsys):
        """`--mode` reads its token through `FFUnitMode.from_token`, as a
        unit document and a descriptor do: case and surrounding space are
        ignored, and each spelling prints the mode's own output."""
        argv = ["unit", "solve-ff", "--alphas", "80,100,60", "--mode"]
        assert main([*argv, mode.value]) == 0
        want = capsys.readouterr()
        for token in (mode.value.upper(), f" {mode.value.upper()}",
                      f"\t{mode.value} \n"):
            assert main([*argv, token]) == 0
            assert capsys.readouterr() == want

    @pytest.mark.parametrize("token", ["10a-3", "10a", "A_PLUS", "",
                                       "FFUnitMode.A_PLUS"])
    def test_unknown_mode_is_a_usage_error(self, token, capsys):
        """A refused mode exits 2 on `unit solve-ff`'s usage line, naming
        the token as `from_token` names it."""
        with pytest.raises(SystemExit) as exc:
            main(["unit", "solve-ff", "--alphas", "80,100,60", "--mode",
                  token])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: quadfold unit solve-ff [-h]")
        assert err.endswith(
            "quadfold unit solve-ff: error: argument --mode: unknown "
            f"flat-foldable unit mode {token!r}\n")

    def test_mode_help_lists_the_four_modes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unit", "solve-ff", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "10a-1, 10a-2, 10b-1, 10b-2" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["vertex", "solve", "--alphas", "80,95,75"])
        assert exc.value.code == 2

    def _fold_file(self, tmp_path, plan):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_json()))
        fold_file = tmp_path / "p.fold"
        assert main(["pattern", "stitch", str(plan_file),
                     "-o", str(fold_file)]) == 0
        return fold_file

    def test_certify_spelled_out_branches_and_report(self, tmp_path,
                                                     capsys):
        """`pattern certify --branches` certifies the grid it spells out,
        a non-default choice on showcase B: its lines are that choice's
        `certify(p, choice).summary()`, not the default's, and `--report`
        writes the same report's `dumps()`."""
        fold_file = self._fold_file(tmp_path, showcase_b_plan())
        p = import_fold(json.loads(fold_file.read_text()))
        choice = next(c for c in enumerate_branch_choices(p)
                      if c != p.branch_default)
        spec = ";".join(",".join(choice[i][j].value for i in range(p.m))
                        for j in range(p.n))
        report_file = tmp_path / "r.json"
        capsys.readouterr()
        rc = main(["pattern", "certify", str(fold_file), "--branches", spec,
                   "--samples", "50", "--report", str(report_file)])
        report = certify(p, choice, 50)
        assert report.verdict and rc == 0
        assert capsys.readouterr().out == (report.summary()
                                           + f"\nwrote {report_file}\n")
        assert report.summary() != certify(p, None, 50).summary()
        assert report_file.read_text() == report.dumps()

    def test_sweep_writes_fold_frames(self, tmp_path, capsys):
        """`pattern sweep --format fold` writes each frame of the library's
        `sweep` as `fold_dumps(export_fold(state, pattern=p))`."""
        fold_file = self._fold_file(tmp_path, showcase_a_plan())
        out_dir = tmp_path / "frames"
        assert main(["pattern", "sweep", str(fold_file), "--frames", "3",
                     "--out-dir", str(out_dir), "--format", "fold"]) == 0
        p = import_fold(json.loads(fold_file.read_text()))
        frames = sweep(p, None, 3).frames
        assert sorted(os.listdir(out_dir)) == [
            f"frame_{k:03d}.fold" for k in range(3)]
        for k, state in enumerate(frames):
            assert (out_dir / f"frame_{k:03d}.fold").read_text() == \
                fold_dumps(export_fold(state, pattern=p))

    def test_no_config_sets_a_bound(self, tmp_path, capsys):
        """The bounds are the library's constants, so `unit validate`
        cannot accept the unit that `pattern stitch` refuses: the A- unit
        with bottom sectors moved by 1.386e-9 (exact residual 1.002e-8)."""
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_MINUS)
        a1, a2, a3, a4 = u.bottom.alpha
        d = 1.386e-9
        moved = replace(u, bottom=Vertex4((a1 - d, a2 + d, a3 + d, a4 - d)))
        with pytest.raises(ValidationFailed):
            stitch(StitchPlan(columns=((moved,),)))
        unit_file = tmp_path / "moved.json"
        unit_file.write_text(json.dumps(moved.to_json()))
        assert main(["unit", "validate", str(unit_file)]) == 1
        assert capsys.readouterr().out.endswith("\nINVALID\n")

    @pytest.mark.parametrize("argv", [
        ["vertex", "solve", "--alphas", "80,95,75,110", "--rho1", "60",
         "--branch", "x"],
        ["vertex", "interval", "--alphas", "80,95,75,110", "--branch", "x"],
    ])
    def test_bad_branch_token_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unknown branch token 'x'" in capsys.readouterr().err

    def test_bad_branches_spec_token_is_usage_error(self, tmp_path, capsys):
        fold_file = self._fold_file(tmp_path, showcase_a_plan())
        with pytest.raises(SystemExit) as exc:
            main(["pattern", "certify", str(fold_file),
                  "--branches", "1,1,1;1,x,1;1,1,1"])
        assert exc.value.code == 2
        assert "unknown branch token 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["pattern", "certify", "{fold}", "--samples", "1"], "--samples"),
        (["pattern", "certify", "{fold}", "--samples", "0"], "--samples"),
        (["unit", "validate", "{unit}", "--samples", "1"], "--samples"),
        (["pattern", "sweep", "{fold}", "--frames", "-2",
          "--out-dir", "{out}"], "--frames"),
        (["pattern", "sweep", "{fold}", "--frames", "0",
          "--out-dir", "{out}"], "--frames"),
        (["pattern", "certify", "{fold}", "--samples", "2.5"], "--samples"),
        (["pattern", "sweep", "{fold}", "--frames", "x",
          "--out-dir", "{out}"], "--frames"),
    ])
    def test_bad_count_flag_is_usage_error(self, argv, flag, tmp_path,
                                           capsys):
        unit_file = tmp_path / "unit.json"
        unit_file.write_text(json.dumps(
            next(showcase_a_plan().units()).to_json()))
        paths = {"fold": str(self._fold_file(tmp_path, showcase_a_plan())),
                 "unit": str(unit_file), "out": str(tmp_path / "frames")}
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag, shown", [
        (["unit", "validate", "{unit}"], "--samples", "samples: {}\n"),
        (["pattern", "certify", "{fold}"], "--samples", "({} samples)"),
        (["pattern", "sweep", "{fold}", "--out-dir", "{out}"], "--frames",
         "wrote {} frames"),
    ], ids=["unit-validate", "pattern-certify", "pattern-sweep"])
    def test_count_flags_and_defaults(self, argv, flag, shown, tmp_path,
                                      capsys):
        """A count comes from its flag alone, else the library's default:
        `DEFAULT_SAMPLES` samples, `DEFAULT_FRAMES` frames, the defaults of
        `certify` and `sweep` too.  Every bound is a constant."""
        assert (DEFAULT_SAMPLES, DEFAULT_FRAMES) == (200, 30)
        assert inspect.signature(sweep).parameters["n_frames"].default == \
            DEFAULT_FRAMES
        unit_file = tmp_path / "unit.json"
        unit_file.write_text(json.dumps(
            next(showcase_a_plan().units()).to_json()))
        paths = {"fold": str(self._fold_file(tmp_path, showcase_a_plan())),
                 "unit": str(unit_file), "out": str(tmp_path / "frames")}
        argv = [a.format(**paths) for a in argv]
        default = {"--samples": DEFAULT_SAMPLES,
                   "--frames": DEFAULT_FRAMES}[flag]
        for extra, value in (([], default), ([flag, "4"], 4)):
            capsys.readouterr()
            assert main(argv + extra) == 0
            assert shown.format(value) in capsys.readouterr().out

    @pytest.mark.parametrize("value", [
        "{samples_33}", "{frames_0}", "{not_json}", "{missing}", " "])
    def test_set_config_is_usage_error(self, value, tmp_path, capsys,
                                       monkeypatch):
        """The counts come only from the flags: a non-empty
        $QUADFOLD_CONFIG, even one naming a well-formed `{"samples": 33}`,
        exits 2 naming the variable, and no command runs.  An empty one is
        unset."""
        fold_file = self._fold_file(tmp_path, showcase_a_plan())
        files = {"missing": tmp_path / "missing.json"}
        for name, text in (("samples_33", '{"samples": 33}'),
                           ("frames_0", '{"frames": 0}'),
                           ("not_json", "{")):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(text)
        out_dir = tmp_path / "frames"
        commands = (
            ["vertex", "interval", "--alphas", "80,95,75,110", "--branch", "1"],
            ["pattern", "certify", str(fold_file), "--samples", "50"],
            ["pattern", "sweep", str(fold_file), "--out-dir", str(out_dir)],
        )
        capsys.readouterr()
        monkeypatch.setenv("QUADFOLD_CONFIG", value.format(**files))
        for argv in commands:
            rc = main(argv)
            out, err = capsys.readouterr()
            assert (rc, out) == (2, "")
            assert err.startswith("error: QUADFOLD_CONFIG ")
            assert "--samples" in err and "--frames" in err
        assert not out_dir.exists()
        monkeypatch.setenv("QUADFOLD_CONFIG", "")
        assert main(commands[0]) == 0

    @pytest.mark.parametrize("argv", [
        ["vertex", "interval", "--alphas", "80,,95,75,110,", "--branch", "1"],
        ["vertex", "interval", "--alphas", "80,95,75,110,", "--branch", "1"],
        ["vertex", "solve", "--alphas", ",80,95,75,110", "--rho1", "10",
         "--branch", "1"],
        ["unit", "solve-ff", "--alphas", "80, ,60", "--mode", "10a-1"],
    ])
    def test_empty_alphas_entry_is_usage_error(self, argv, capsys):
        """An empty `--alphas` entry is refused by name, not dropped."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "empty angle entry in --alphas" in captured.err

    def test_alphas_take_whitespace_around_numbers(self, capsys):
        assert main(["vertex", "interval", "--alphas", "80,95,75,110",
                     "--branch", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(["vertex", "interval", "--alphas", " 80, 95 ,75 ,110 ",
                     "--branch", "1"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("spec", [
        "2,2,2;;1,1,1;2,2,2;", "2,2,2;1,1,1;2,2,2;", ";2,2,2;1,1,1;2,2,2",
        "2,2,2; ;1,1,1"])
    def test_empty_branches_group_is_usage_error(self, spec, pat_a,
                                                 tmp_path, capsys):
        """An empty `--branches` column group is refused by name, not
        dropped; whitespace around a token is accepted."""
        with pytest.raises(argparse.ArgumentTypeError,
                           match="empty column group in --branches"):
            _parse_branch_spec(spec, pat_a)
        fold_file = self._fold_file(tmp_path, showcase_a_plan())
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pattern", "certify", str(fold_file), "--samples", "50",
                  "--branches", spec])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "empty column group in --branches" in captured.err
        spaced = _parse_branch_spec(" 2, 2,2 ;1,1 ,1; 2,2,2 ", pat_a)
        assert spaced == _parse_branch_spec("2,2,2;1,1,1;2,2,2", pat_a)

    @pytest.mark.parametrize("doc, named", [
        (_ff_plan(mode="10c-9"), "mode"),
        (_ff_plan(mode=None), "mode"),
        (_ff_plan(alphas_deg=[80, 100]), "alphas_deg"),
        (_ff_plan(alphas_deg=None), "alphas_deg"),
        (_ff_plan(alphas_deg=["80", 100, 60]), "alphas_deg"),
        (_ff_plan(kind="flat_foldable_basic"), "alphas_deg"),
        ({"columns": [[{"kind": "custom", "mirror_of_deg": [77, 88, 112, 83],
                        "branch": "7"}]]}, "branch"),
        ({"columns": [[{"sector_deg": ["x"] + [90.0] * 7}]]}, "sector_deg"),
        ({"rows": []}, "columns"),
        ({"columns": "nope"}, "columns"),
        (_ff_plan()["columns"], "object"),
        (_grid_plan(top_lengths=2.0), "top_lengths"),
        (_grid_plan(top_lengths=[]), "top_lengths"),
        (_grid_plan(top_lengths=[1.0, 1.0]), "top_lengths"),
        (_grid_plan(left_lengths=[1.0, 1.0]), "left_lengths"),
        (_grid_plan(left_lengths=[-1.0]), "left_lengths"),
        (_grid_plan(boundary_length=math.nan), "boundary_length"),
        (_grid_plan(boundary_length="1"), "boundary_length"),
        (_full_form_plan(kind="bogus"), "kind"),
        (_full_form_plan(kind=7), "kind"),
        (_full_form_plan(sign=[1, 1]), "unknown key 'sign'"),
        (_ff_plan(branch="1"), "unknown key 'branch'"),
        ({"columns": [[{"kind": "straight_line", "branch": "1",
                        "alphas_deg": [70, 80, 100, 110]}]]},
         "unknown key 'branch'"),
        ({"columns": [[{"mirror_of_deg": [77, 88, 112, 83], "mode": "10a-1"}]]},
         "unknown key 'mode'"),
        (_grid_plan(top_length=[1.0]), "unknown key 'top_length'"),
        (_grid_plan(boundary=2.0), "unknown key 'boundary'"),
    ])
    def test_malformed_plan_is_refused(self, doc, named, tmp_path, capsys):
        """`pattern count` refuses a malformed plan with an error line that
        names the key, never a traceback."""
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(doc))
        rc = main(["pattern", "count", str(plan_file)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
