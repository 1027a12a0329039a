import json
from fractions import Fraction

import pytest

from deltaclose import groups, jsonio, make_field
from deltaclose.errors import DenseGroup, DimensionMismatch, EmptyInput, FrameInvalid, InternalError
from deltaclose.groups import (
    build_frame,
    dual_witness,
    frame_on_hyperplane,
    group_closure,
    orthogonal_parts,
    projection_coords,
    verify_orthogonality,
    verify_reconstruction,
    witness_checks,
)

from deltaclose.linalg import _dot, field_rref, field_solve

from conftest import random_fraction, random_scalar, rng_for


@pytest.fixture(scope="module")
def F():
    return make_field([-2, 0, 1], (1, 2))


@pytest.fixture(scope="module")
def G4():
    return make_field([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10)))


def test_dyadic_chain(F):
    c = group_closure([(1,), (Fraction(1, 2),), (Fraction(1, 4),)], field=F)
    assert not c.dense
    assert c.v_basis == []
    assert len(c.lambda_basis) == 1
    assert c.lambda_basis[0][0] == Fraction(1, 4)
    assert verify_reconstruction(c)
    assert verify_orthogonality(c)


def test_irrational_pair_dense(F):
    c = group_closure([(1,), (F.gen(),)], field=F)
    assert c.dense and len(c.v_basis) == 1 and not c.lambda_basis


def test_single_generator_not_dense(F):
    c = group_closure([(1,)], field=F)
    assert not c.dense
    assert c.lambda_basis and c.lambda_basis[0][0] == 1


def test_mixed_plane(F):
    th = F.gen()
    c = group_closure([(1, 0), (th, F.zero()), (0, 1)], field=F)
    assert not c.dense
    assert len(c.v_basis) == 1
    assert c.v_basis[0][0] == 1 and c.v_basis[0][1].is_zero()
    assert len(c.lambda_basis) == 1
    assert c.lambda_basis[0][0].is_zero() and c.lambda_basis[0][1] == 1
    assert verify_reconstruction(c) and verify_orthogonality(c)


def test_plane_with_independent_irrationals_dense(G4):
    mu = G4.gen()
    s2 = (mu ** 3 - mu * 9) / 2
    s3 = (mu * 11 - mu ** 3) / 2
    assert s2 * s2 == 2 and s3 * s3 == 3
    c = group_closure([(1, 0), (0, 1), (s2, s3)], field=G4)
    assert c.dense
    assert dual_witness([(1, 0), (0, 1), (s2, s3)], G4) is None


def test_parallel_irrational_direction_not_dense(F):
    # two rational axes plus one theta-direction vector: a rational relation
    # among the theta parts always yields a dual witness
    th = F.gen()
    gens = [(1, 0), (0, 1), (th, th)]
    c = group_closure(gens, field=F)
    assert not c.dense
    w = dual_witness(gens, F)
    assert w is not None and witness_checks(w[0], gens, F)


def test_idempotence_under_basis_union(F):
    from deltaclose.linalg import field_rref

    th = F.gen()
    gens = [(1, 0), (th, F.zero()), (0, 1)]
    c = group_closure(gens, field=F)
    again = group_closure(c.v_basis + c.lambda_basis + c.generators, field=F)
    assert again.dense == c.dense
    assert again.lambda_basis == c.lambda_basis
    ref, _ = field_rref([list(v) for v in c.v_basis])
    ref2, _ = field_rref([list(v) for v in again.v_basis])
    assert [list(r) for r in ref] == [list(r) for r in ref2]


def test_empty_input(F):
    with pytest.raises(EmptyInput):
        group_closure([], field=F)


def test_duality_consistent_on_random_suite(F):
    rng = rng_for("duality-suite")
    th = F.gen()
    for _ in range(30):
        d = rng.randint(1, 2)
        t = rng.randint(1, 3)
        gens = []
        for _ in range(t):
            vec = []
            for _ in range(d):
                q = random_fraction(rng, num=3, den=3)
                vec.append(q + th * Fraction(rng.randint(-1, 1)))
            gens.append(tuple(vec))
        if all(all(x.is_zero() for x in g) for g in gens):
            gens[0] = (F.one(),) * d
        c = group_closure(gens, field=F)
        w = dual_witness(gens, F)
        if c.dense:
            assert w is None
        else:
            assert w is not None
            assert witness_checks(w[0], gens, F)
        assert verify_reconstruction(c)
        assert verify_orthogonality(c)


# -- hyperplane frames ----------------------------------------------------------

def test_frame_integer_line(F):
    c = group_closure([(1,)], field=F)
    fr = build_frame(c)
    assert fr.vt_basis == []
    assert fr.w == (F.one(),)
    assert fr.r == 1
    assert fr.p == [1]


def test_frame_plane(F):
    th = F.gen()
    c = group_closure([(1, 0), (th, F.zero()), (0, 1)], field=F)
    fr = build_frame(c)
    assert fr.r == 1
    assert fr.p == [0, 0, 1]
    proj, s = fr.split((Fraction(3), Fraction(5)))
    assert s == 5 and proj[0] == 3 and proj[1].is_zero()
    _, sw = fr.split(fr.w)
    assert sw == 1


def test_frame_square_lattice(F):
    c = group_closure([(1, 0), (0, 1)], field=F)
    fr = build_frame(c)
    assert fr.p == [0, 1]
    assert fr.r == 1


def test_frame_rejects_dense(F):
    c = group_closure([(1,), (F.gen(),)], field=F)
    with pytest.raises(DenseGroup):
        build_frame(c)


def test_s_additive_and_reassembly(F):
    th = F.gen()
    c = group_closure([(1, 0), (th, F.zero()), (0, 1)], field=F)
    fr = build_frame(c)
    rng = rng_for("s-additive")
    for _ in range(100):
        z1 = tuple(F.element([random_fraction(rng), random_fraction(rng)])
                   for _ in range(2))
        z2 = tuple(F.element([random_fraction(rng), random_fraction(rng)])
                   for _ in range(2))
        s1 = fr.s_value(z1)
        s2 = fr.s_value(z2)
        s12 = fr.s_value(tuple(a + b for a, b in zip(z1, z2)))
        assert s12 == s1 + s2
        proj, s = fr.split(z1)
        back = tuple(a + s * b for a, b in zip(proj, fr.w))
        assert all((a - b).is_zero() for a, b in zip(back, z1))


def test_split_float_matches_exact(F):
    import numpy as np
    th = F.gen()
    c = group_closure([(1, 0), (th, F.zero()), (0, 1)], field=F)
    fr = build_frame(c)
    rng = rng_for("split-float")
    pts = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(50)])
    proj, s = fr.split_float(pts)
    w = np.array([float(x) for x in fr.w])
    recon = proj + np.outer(s, w)
    assert np.max(np.abs(recon - pts)) < 1e-12


def test_projection_helper(F):
    th = F.gen()
    basis = [(F.one(), F.zero())]
    (r,) = orthogonal_parts(basis, [(th, F.one())])
    assert r[0].is_zero() and r[1] == 1


def _gram_solve_projection(basis_rows, x):
    """Per-vector oracle: solve the Gram system G c = B x, return sum c_i b_i."""
    field = basis_rows[0][0].field
    k = len(basis_rows)
    gram = [[_dot(basis_rows[i], basis_rows[j]) for j in range(k)] for i in range(k)]
    rhs = [_dot(b, x) for b in basis_rows]
    sol, kern = field_solve(gram, rhs, k, field.zero(), field.one())
    assert sol is not None and not kern
    out = [field.zero() for _ in x]
    for c, row in zip(sol, basis_rows):
        for i, v in enumerate(row):
            out[i] = out[i] + c * v
    return tuple(out), sol


@pytest.mark.parametrize("field_name", ["F", "G4"])
def test_projection_helper_against_gram_solve(field_name, request):
    K = request.getfixturevalue(field_name)
    rng = rng_for(f"projection-{field_name}")
    cases = 0
    for d in (2, 3):
        for k in range(1, d + 1):
            for _ in range(4):
                rows = [tuple(random_scalar(rng, K) for _ in range(d)) for _ in range(k)]
                if len(field_rref(rows)[0]) != k:
                    continue
                xs = [tuple(random_scalar(rng, K) for _ in range(d)) for _ in range(3)]
                T = projection_coords(rows)
                for x, r in zip(xs, orthogonal_parts(rows, xs)):
                    px, coeffs = _gram_solve_projection(rows, x)
                    assert all((a - b - c).is_zero() for a, b, c in zip(x, px, r))
                    assert [_dot(t, x) for t in T] == coeffs
                cases += 1
    assert cases >= 18


def _frame_key(fr):
    return (fr.vt_basis, fr.w, fr.r, fr.p)


def test_frame_on_hyperplane_matches_build_frame(F):
    """The acceptance-6 closures: building on the default frame's own
    hyperplane reproduces it exactly."""
    th = F.gen()
    for dim in (2, 3):
        pad = (F.zero(),) * (dim - 2)
        gens = [(F.one(), F.zero()) + pad, (th, F.zero()) + pad, (F.zero(), F.one()) + pad]
        c = group_closure(gens, field=F)
        fr = build_frame(c)
        assert _frame_key(frame_on_hyperplane(c, fr.vt_basis)) == _frame_key(fr)


def test_frame_document_round_trip(F):
    """Encoding a frame and decoding it again gives an equal frame: the
    decoder rebuilds it from the closure and the hyperplane rows."""
    th = F.gen()
    o, z = F.one(), F.zero()
    frames = [build_frame(group_closure([(o, z) + pad, (th, z) + pad, (z, o) + pad], field=F))
              for pad in ((), (z,))]
    frames.append(frame_on_hyperplane(_mixed_space(F), [(1, 0, 0), (0, 3, 2)]))
    frames.append(frame_on_hyperplane(
        group_closure([(o, z, z), (th, z, z), (z, o, z), (z, z, o)], field=F),
        [(1, 0, 0), (0, 1, 1)]))
    for fr in frames:
        doc = json.loads(jsonio.dumps(jsonio.encode_frame(fr)))
        again = jsonio.decode_frame(F, doc)
        assert again == fr
        assert jsonio.encode_frame(again) == jsonio.encode_frame(fr)


def _mixed_space(F):
    th = F.gen()
    o, z = F.one(), F.zero()
    return group_closure([(o, z, z), (th, z, z), (z, o, z), (z, z, o)], field=F)


def test_frame_commensurable_levels(F):
    """Levels 6/13 and 9/13 on the lattice Z e2 + Z e3: r is their gcd 3/13."""
    c = _mixed_space(F)
    fr = frame_on_hyperplane(c, [(1, 0, 0), (0, 3, -2)])
    assert fr.r == Fraction(3, 13)
    assert fr.p == [0, 0, 2, 3]
    for g, p in zip(c.generators, fr.p):
        assert fr.s_value(g) == fr.r * p


def test_frame_orients_first_nonzero_level(F):
    """The kernel normal of these rows gives the first lattice level -6/13;
    w and p come out negated so that level is positive."""
    c = _mixed_space(F)
    fr = frame_on_hyperplane(c, [(1, 0, 0), (0, 3, 2)])
    assert fr.s_value(c.lambda_basis[0]).sign() > 0
    assert fr.r == Fraction(3, 13)
    assert fr.p == [0, 0, 2, -3]
    # the square lattice on the anti-diagonal hyperplane: s(e1) = 1/2 > 0
    sq = group_closure([(1, 0), (0, 1)], field=F)
    fr2 = frame_on_hyperplane(sq, [(1, 1)])
    assert fr2.w == (F.one(), -F.one())
    assert fr2.r == Fraction(1, 2) and fr2.p == [1, -1]


def test_frame_on_hyperplane_rejects_bad_rows(F):
    c = _mixed_space(F)
    th = F.gen()
    with pytest.raises(DimensionMismatch):
        frame_on_hyperplane(c, [(1, 0), (0, 1)])
    with pytest.raises(FrameInvalid):  # dimension d - 2
        frame_on_hyperplane(c, [(1, 0, 0)])
    with pytest.raises(FrameInvalid):  # misses V
        frame_on_hyperplane(c, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(FrameInvalid):  # levels 1 : sqrt2
        frame_on_hyperplane(c, [(1, 0, 0), (0, th, -1)])
    with pytest.raises(DenseGroup):
        frame_on_hyperplane(group_closure([(1,), (th,)], field=F), [])


def _closure_case(F, G4, name):
    """(field, generators, dense) of a named closure case in d = 1..3."""
    one, zero, th = F.one(), F.zero(), F.gen()
    mu = G4.gen()
    s2, s3 = (mu ** 3 - mu * 9) / 2, (mu * 11 - mu ** 3) / 2
    cases = {
        "d1-dense": (F, [(one,), (th,)], True),
        "d1-lattice": (F, [(one,), (F.rational(Fraction(1, 2)),)], False),
        "d2-dense": (F, [(one, zero), (th, zero), (zero, one), (zero, th)], True),
        "d2-diagonal-dense": (G4, [(G4.one(), G4.zero()), (G4.zero(), G4.one()), (s2, s3)],
                              True),
        "d2-line": (F, [(one, zero), (th, zero), (zero, one)], False),
        "d3-dense": (F, [tuple(c if i == j else zero for i in range(3))
                         for j in range(3) for c in (one, th)], True),
        "d3-line": (F, [(one, zero, zero), (zero, one, zero), (zero, zero, one),
                        (th, zero, zero)], False),
        "d3-plane": (F, [(one, zero, zero), (th, zero, zero), (zero, one, zero),
                         (zero, th, zero), (zero, zero, one)], False),
    }
    return cases[name]


@pytest.mark.parametrize("name", ["d1-dense", "d1-lattice", "d2-dense", "d2-diagonal-dense",
                                  "d2-line", "d3-dense", "d3-line", "d3-plane"])
def test_closure_stops_at_full_rank(F, G4, name, monkeypatch):
    # once V = R^d every projection onto its complement is zero: the closure
    # stops without projecting, and still agrees with the dual witness and
    # both exact verifications
    field, gens, dense = _closure_case(F, G4, name)
    d = len(gens[0])
    projections = []
    real = groups.orthogonal_parts
    monkeypatch.setattr(groups, "orthogonal_parts",
                        lambda rows, xs: projections.append(len(rows)) or real(rows, xs))
    c = group_closure(gens, field=field)
    monkeypatch.undo()
    assert c.dense is dense
    witness = dual_witness(gens, field)
    assert (witness is None) is dense
    if witness is not None:
        assert witness_checks(witness[0], gens, field)
    assert verify_reconstruction(c) and verify_orthogonality(c)
    if dense:
        assert projections == []
        assert len(c.v_basis) == d and c.lambda_basis == []
        assert [v for v, _ in c.reconstruction] == [tuple(g) for g in gens]
        assert all(coords == [] for _, coords in c.reconstruction)
    else:
        assert len(c.v_basis) + len(c.lambda_basis) <= d


# -- lattice coordinates and frame constants, each formed once ----------------------

def _rational_coords(lam_flat, target):
    """The reference: coordinates over Q by one elimination, then an
    integrality check."""
    if not lam_flat:
        return [] if not any(target) else None
    k = len(lam_flat)
    rows = [[lam_flat[j][i] for j in range(k)] for i in range(len(target))]
    part, kern = field_solve(rows, list(target), k, Fraction(0), Fraction(1))
    assert not kern
    if part is None or any(f.denominator != 1 for f in part):
        return None
    return [int(f) for f in part]


@pytest.mark.parametrize("field_name", ["F", "G4"])
def test_closure_reconstruction_matches_rational_solve(field_name, request):
    """Every generator's lattice coordinates, read off the HNF rows, are
    those of a rational solve of its projection g - v_part."""
    K = request.getfixturevalue(field_name)
    rng = rng_for(f"closure-reconstruction-{field_name}")
    th = K.gen()
    lattice_parts = 0
    for _ in range(16):
        d = rng.randint(1, 3)
        gens = [tuple(random_fraction(rng, num=3, den=3) + th * Fraction(rng.randint(-1, 1))
                      * rng.randint(0, 1) for _ in range(d))
                for _ in range(rng.randint(1, 4))]
        if all(x.is_zero() for g in gens for x in g):
            gens[0] = (K.one(),) * d
        c = group_closure(gens, field=K)
        lam_flat = [groups._flatten(v) for v in c.lambda_basis]
        for g, (v_part, coords) in zip(c.generators, c.reconstruction):
            p = tuple(a - b for a, b in zip(g, v_part))
            assert coords == _rational_coords(lam_flat, groups._flatten(p))
        assert verify_reconstruction(c)
        lattice_parts += bool(lam_flat)
    assert lattice_parts >= 8


def test_closure_refuses_lattice_rows_out_of_echelon_form(F, monkeypatch):
    real = groups.lattice_basis
    monkeypatch.setattr(groups, "lattice_basis", lambda rows: real(rows)[::-1])
    with pytest.raises(InternalError, match="echelon"):
        group_closure([(F.one(), F.zero()), (F.zero(), F.one())], field=F)


def test_frame_constants_formed_once(F, G4):
    rng = rng_for("frame-constants")
    for K in (F, G4):
        th = K.gen()
        for dim in (2, 3):
            pad = (K.zero(),) * (dim - 2)
            gens = [(K.one(), K.zero()) + pad, (th, K.zero()) + pad,
                    (K.zero(), K.rational(Fraction(3, 2))) + pad]
            fr = build_frame(group_closure(gens, field=K))
            w, wn = fr.w, _dot(fr.w, fr.w)
            for _ in range(10):
                z = tuple(random_scalar(rng, K) for _ in range(dim))
                assert fr.s_value(z) == _dot(w, z) / wn
            inline = [[(K.one() if i == j else K.zero()) - w[i] * w[j] / wn
                       for j in range(dim)] for i in range(dim)]
            P = fr.projection_matrix()
            assert P == inline
            P[0][0] = K.rational(7)
            P[1].append(K.one())
            assert fr.projection_matrix() == inline
            # the caches take no part in == or repr
            assert fr == frame_on_hyperplane(fr.closure, fr.vt_basis)
            assert "_inv_wnorm2" not in repr(fr) and "_projection" not in repr(fr)
