import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sunmesh import (
    ARITY_CONSTRAINED,
    ARITY_FULL,
    Coupler,
    EulerAngles,
    FormatError,
    MeshPlan,
    ValidationError,
    clements_decompose,
    coupler_matrix,
    depth,
    parameter_count,
    plan_from_json,
    plan_to_json,
    random_unitary_qr,
    reck_decompose,
    reconstruct,
    render,
    su2_from_euler,
    triangle_decompose,
)
from sunmesh.errors import check_int

R23 = Coupler(2, 3, EulerAngles(0.4, 1.0, -0.2), ARITY_FULL)


def embed_coupler(n, c):
    """Embed a coupler into the n-dimensional identity at its mode pair."""
    check_int(n, "n")
    if c.j > n:
        raise ValidationError(f"coupler pair ({c.i}, {c.j}) does not fit in {n} modes")
    out = np.eye(n, dtype=np.complex128)
    k = coupler_matrix(c)
    idx = (c.i - 1, c.j - 1)
    out[np.ix_(idx, idx)] = k
    return out


def full(i, j, a, b, g):
    return Coupler(i, j, EulerAngles(a, b, g), ARITY_FULL)


def test_coupler_validation():
    with pytest.raises(ValidationError):
        Coupler(2, 2, EulerAngles(0, 0, 0))
    with pytest.raises(ValidationError):
        Coupler(0, 1, EulerAngles(0, 0, 0))
    with pytest.raises(ValidationError):
        Coupler(1, 2, EulerAngles(0, 0, 0), "both")
    with pytest.raises(ValidationError):
        Coupler(1, 2, (0.0, 0.0, 0.0))
    for bad in (math.nan, math.inf, -math.inf):
        for angles in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValidationError):
                Coupler(1, 2, EulerAngles(*angles))
        with pytest.raises(ValidationError):
            MeshPlan(2, bad, ())
    # an int beyond the float range is not finite either
    for big in (10**400, -(10**400)):
        with pytest.raises(ValidationError, match="^coupler angles must be finite"):
            Coupler(1, 2, EulerAngles(big, 0.0, 0.0))
        with pytest.raises(ValidationError, match="^global_phase must be finite"):
            MeshPlan(2, big, ())
    # bools and non-reals are not angles, whatever float() makes of them
    for bad in ("0.5", True, False, None, 1j, np.bool_(True)):
        for angles in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValidationError, match="^coupler angles: expected a number"):
                Coupler(1, 2, EulerAngles(*angles))
        with pytest.raises(ValidationError, match="^global_phase: expected a number"):
            MeshPlan(2, bad, ())
    # every real is still an angle, and angles and phase become floats
    for good in (1, np.float32(0.25), np.int64(-3), Fraction(1, 3)):
        angles = Coupler(1, 2, EulerAngles(good, 0.0, good)).angles
        assert all(type(a) is float for a in angles)
        assert angles == EulerAngles(float(good), 0.0, float(good))
        phase = MeshPlan(2, good, ()).global_phase
        assert type(phase) is float and phase == float(good)


def test_constrained_coupler_requires_equal_phases():
    ok = Coupler(1, 2, EulerAngles(0.5, 1.0, 0.5), ARITY_CONSTRAINED)
    assert ok.arity == ARITY_CONSTRAINED
    with pytest.raises(ValidationError):
        Coupler(1, 2, EulerAngles(0.5, 1.0, 0.6), ARITY_CONSTRAINED)


def test_adjacency_flag():
    assert Coupler(3, 4, EulerAngles(0, 0, 0)).adjacent
    assert not Coupler(1, 3, EulerAngles(0, 0, 0)).adjacent


def test_plan_validates_pairs_fit():
    with pytest.raises(ValidationError):
        MeshPlan(3, 0.0, (full(3, 4, 0, 0, 0),))
    with pytest.raises(ValidationError):
        MeshPlan(3, 0.0, ((2, 3, EulerAngles(0, 0, 0)),))


def test_coupler_matrix_matches_euler_matrix():
    assert np.array_equal(coupler_matrix(R23), su2_from_euler(R23.angles))


def test_embed_places_block_on_named_pair():
    m = embed_coupler(4, R23)
    k = su2_from_euler(R23.angles)
    assert np.array_equal(m[1:3, 1:3], k)
    assert m[0, 0] == 1.0 and m[3, 3] == 1.0
    assert np.count_nonzero(m - np.eye(4, dtype=complex)) == 4


def test_reconstruct_orders_factors_head_leftmost():
    a = full(1, 2, 0.3, 0.9, -0.8)
    b = full(2, 3, -0.5, 0.4, 0.1)
    plan = MeshPlan(3, 0.25, (a, b))
    want = cmath.exp(0.25j) * embed_coupler(3, a) @ embed_coupler(3, b)
    assert np.allclose(reconstruct(plan), want, atol=1e-14)


def test_reconstruct_identity_plan():
    couplers = tuple(
        Coupler(i, i + 1, EulerAngles(0, 0, 0)) for i in (2, 1, 2)
    )
    assert np.array_equal(reconstruct(MeshPlan(3, 0.0, couplers)), np.eye(3))


def _random_span_plan(n, seed):
    """Couplers on random, mostly non-adjacent pairs: layers mix widths."""
    rng = np.random.default_rng(seed)
    couplers = []
    for _ in range(3 * n if n > 1 else 0):
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        couplers.append(full(i, j, *rng.uniform(-7.0, 7.0, 3).tolist()))
    return MeshPlan(n, 0.4, tuple(couplers))


def _doubled_triangle(u):
    tri = triangle_decompose(u)
    return MeshPlan(tri.n, 0.7, tri.couplers * 2)


KERNEL_PLANS = {
    "triangle": triangle_decompose,
    "reck": reck_decompose,
    "clements": clements_decompose,
    "doubled": _doubled_triangle,
    "empty": lambda u: MeshPlan(u.shape[0], -1.3, ()),
    "random_spans": lambda u: _random_span_plan(u.shape[0], seed=u.shape[0]),
}


@pytest.mark.parametrize("scheme", sorted(KERNEL_PLANS))
@pytest.mark.parametrize("n", range(1, 10))
def test_reconstruct_equals_ordered_product_of_embedded_couplers(n, scheme):
    plan = KERNEL_PLANS[scheme](random_unitary_qr(n, seed=40 + n))
    want = np.eye(n, dtype=complex)
    for c in plan.couplers:
        want = want @ embed_coupler(n, c)
    want = cmath.exp(1j * plan.global_phase) * want
    assert np.max(np.abs(reconstruct(plan) - want)) <= 1e-13


@pytest.mark.parametrize("pairs_of", ["triangle", "random_spans"])
@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_blocked_product_is_bit_identical_to_per_sample_products(n, pairs_of):
    from sunmesh.mesh import _BLOCK, _pairs, _product, _triangle_pairs

    if pairs_of == "triangle":
        pairs = _triangle_pairs(n)
    else:
        pairs = _pairs(_random_span_plan(n, seed=n))
    table = np.random.default_rng(n).uniform(-7.0, 7.0, (3, len(pairs), 1024))
    want = np.stack([_product(n, pairs, table[:, :, s]) for s in range(1024)], axis=-1)
    for size in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1024):
        got = _product(n, pairs, table[:, :, :size])
        assert got.shape == (n, n, size)
        assert np.array_equal(got, want[:, :, :size]), size


def test_depth_single_coupler():
    assert depth(MeshPlan(2, 0.0, (full(1, 2, 0, 0, 0),))) == 1


def test_depth_disjoint_pairs_pack_into_one_layer():
    plan = MeshPlan(4, 0.0, (full(1, 2, 0, 0, 0), full(3, 4, 0, 0, 0)))
    assert depth(plan) == 1


def test_depth_overlapping_pairs_stack():
    plan = MeshPlan(3, 0.0, (full(1, 2, 0, 0, 0), full(2, 3, 0, 0, 0)))
    assert depth(plan) == 2


def test_depth_counts_nonadjacent_span():
    # a (1,3) coupler blocks mode 2, so a following (2,3) cannot share its layer
    plan = MeshPlan(3, 0.0, (full(1, 3, 0, 0, 0), full(2, 3, 0, 0, 0)))
    assert depth(plan) == 2


def test_parameter_count_by_arity():
    plan = MeshPlan(
        3,
        0.0,
        (
            full(2, 3, 0.1, 0.2, 0.3),
            Coupler(1, 2, EulerAngles(0.4, 0.5, 0.4), ARITY_CONSTRAINED),
        ),
    )
    assert parameter_count(plan) == 5


def test_render_ascii_layout():
    plan = MeshPlan(
        3,
        0.0,
        (
            full(2, 3, 0, 1, 0),
            Coupler(1, 2, EulerAngles(0.1, 0.2, 0.1), ARITY_CONSTRAINED),
            full(2, 3, 0, 1, 0),
        ),
    )
    art = render(plan)
    assert art == "\n".join(
        [
            "1 -------+---+-------",
            "         | 2 |",
            "2 -+---+-+---+-+---+-",
            "   | 3 |       | 3 |",
            "3 -+---+-------+---+-",
        ]
    )


def test_render_ascii_drops_blank_gap_rows():
    # nothing spans modes 2 and 3, so no gap row is drawn between them
    art = render(MeshPlan(3, 0.0, (full(1, 2, 0, 1, 0),)))
    assert art.splitlines() == ["1 -+---+-", "   | 3 |", "2 -+---+-", "3 -------"]


def test_render_ascii_mode_lines_have_equal_length():
    plan = MeshPlan(4, 0.0, tuple(full(i, i + 1, 0, 1, 0) for i in (3, 2, 1, 3, 2, 3)))
    lines = render(plan).splitlines()
    mode_lines = lines[::2]
    assert len(mode_lines) == 4
    assert len({len(l) for l in mode_lines}) == 1


def test_render_svg_structure():
    plan = MeshPlan(3, 0.0, (full(2, 3, 0, 1, 0), full(1, 2, 0, 1, 0)))
    svg = render(plan, format="svg")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 2
    assert svg.count("<line") == 3
    # every coordinate is an integer: no decimal points outside labels
    assert "." not in svg.replace("http://www.w3.org/2000/svg", "")


def test_render_rejects_nonadjacent_and_unknown_format():
    plan = MeshPlan(3, 0.0, (full(1, 3, 0, 0, 0),))
    with pytest.raises(ValidationError):
        render(plan)
    with pytest.raises(ValidationError):
        render(MeshPlan(2, 0.0, ()), format="png")


def test_plan_json_roundtrip_is_exact():
    plan = MeshPlan(
        3,
        -0.125,
        (
            full(2, 3, 0.4, 1.0, -0.2),
            Coupler(1, 2, EulerAngles(0.5, 1.0, 0.5), ARITY_CONSTRAINED),
        ),
    )
    text = json.dumps(plan_to_json(plan))
    back = plan_from_json(json.loads(text))
    assert back == plan


@pytest.mark.parametrize("angle", [np.float32(0.25), np.int64(-3), Fraction(1, 3), 1])
def test_plan_json_roundtrip_of_non_float_angles(angle):
    plan = MeshPlan(2, 0.0, (Coupler(1, 2, EulerAngles(angle, angle, angle), ARITY_CONSTRAINED),))
    text = json.dumps(plan_to_json(plan))
    assert text.count(repr(float(angle))) == 3
    assert plan_from_json(json.loads(text)) == plan


def test_plan_from_json_ignores_extra_keys():
    doc = plan_to_json(MeshPlan(2, 0.0, (full(1, 2, 0, 1, 0),)))
    doc["provenance"] = {"command": "x"}
    assert plan_from_json(doc).n == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("global_phase"),
        lambda d: d.pop("couplers"),
        lambda d: d.update(n="3"),
        lambda d: d.update(global_phase="0"),
        lambda d: d.update(couplers="nope"),
        lambda d: d["couplers"][0].pop("beta"),
        lambda d: d["couplers"][0].update(alpha=float("nan")),
        lambda d: d.update(global_phase=float("inf")),
        lambda d: d["couplers"][0].update(i=1.5),
        lambda d: d["couplers"][0].update(arity=3),
        lambda d: d.update(global_phase=10**400),
        lambda d: d["couplers"][0].update(alpha=10**400),
        lambda d: d["couplers"].append([1, 2]),
    ],
)
def test_plan_from_json_rejects_malformed(mutate):
    doc = plan_to_json(MeshPlan(2, 0.0, (full(1, 2, 0.1, 1.0, 0.2),)))
    mutate(doc)
    with pytest.raises(FormatError):
        plan_from_json(doc)


def test_plan_from_json_semantic_errors_are_validation():
    doc = plan_to_json(MeshPlan(2, 0.0, (full(1, 2, 0.1, 1.0, 0.2),)))
    doc["couplers"][0]["arity"] = "constrained2"
    with pytest.raises(ValidationError):
        plan_from_json(doc)
    doc = plan_to_json(MeshPlan(2, 0.0, (full(1, 2, 0.1, 1.0, 0.2),)))
    doc["couplers"][0]["j"] = 5
    with pytest.raises(ValidationError):
        plan_from_json(doc)
