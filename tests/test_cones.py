"""Cone membership, complementarity checks, and pair classification."""

import numpy as np
import pytest

from esoclcp import (
    CertificateIII,
    DimensionMismatch,
    EsocDims,
    PairCase,
    PointZ,
    affine_map,
    classify_pair,
    comp_pair_check,
    in_esoc,
    in_esoc_dual,
    make_instance,
    orthant_comp_violation,
)


def test_dims_validation():
    d = EsocDims(3, 2)
    assert d.m == 5
    with pytest.raises(ValueError):
        EsocDims(0, 2)
    with pytest.raises(ValueError):
        EsocDims(3, 0)


@pytest.mark.parametrize("k, l", [(True, 2), (2, True), (2.5, 1), (2.0, 1), (1, 1.5), ("2", 1), (np.float64(2.0), 1)])
def test_dims_must_be_integers(k, l):
    with pytest.raises(ValueError, match=r"^dims must satisfy k >= 1 and l >= 1, got "):
        EsocDims(k, l)


def test_dims_accept_numpy_integers():
    assert EsocDims(np.int64(3), np.uint8(2)).m == 5


def test_point_array_round_trip():
    z = PointZ(np.array([1.0, 2.0]), np.array([3.0]))
    arr = z.to_array()
    assert arr.tolist() == [1.0, 2.0, 3.0]
    back = PointZ.from_array(EsocDims(2, 1), arr)
    assert np.array_equal(back.x, z.x) and np.array_equal(back.u, z.u)


def test_point_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        PointZ(np.ones((2, 2)), np.ones(1))
    with pytest.raises(ValueError):
        PointZ(np.array([np.nan]), np.ones(1))


def test_in_esoc_boundary_and_interior():
    # x = ||u|| e sits exactly on the boundary
    u = np.array([3.0, 4.0])
    assert in_esoc(PointZ(np.array([5.0, 5.0]), u))
    assert in_esoc(PointZ(np.array([6.0, 5.5]), u))
    assert not in_esoc(PointZ(np.array([4.9, 6.0]), u))
    assert not in_esoc(PointZ(np.array([-1.0, 1.0]), np.array([0.0])))


def test_in_esoc_dual_examples():
    u = np.array([3.0, 4.0])
    # sum of x carries the norm bound, single coordinates may sit below it
    assert in_esoc_dual(PointZ(np.array([1.0, 4.0]), u))
    assert not in_esoc_dual(PointZ(np.array([1.0, 3.0]), u))
    assert not in_esoc_dual(PointZ(np.array([-0.5, 6.0]), u))
    assert in_esoc_dual(PointZ(np.array([0.0, 0.0]), np.array([0.0])))


def test_esoc_implies_dual_membership():
    # L is contained in M: every x >= ||u|| forces sum x >= ||u|| and x >= 0
    rng = np.random.default_rng(5)
    for trial in range(200):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        u = rng.uniform(-2.0, 2.0, l)
        x = np.linalg.norm(u) + rng.uniform(0.0, 2.0, k)
        z = PointZ(x, u)
        assert in_esoc(z) and in_esoc_dual(z), f"trial {trial}"


def test_duality_inner_products_nonnegative():
    """Rejection-sampled z in L and w in M never pair to a negative product."""
    rng = np.random.default_rng(29)
    count = 0
    while count < 1000:
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        z = PointZ(rng.uniform(-3.0, 3.0, k), rng.uniform(-3.0, 3.0, l))
        w = PointZ(rng.uniform(-3.0, 3.0, k), rng.uniform(-3.0, 3.0, l))
        if not (in_esoc(z, 0.0) and in_esoc_dual(w, 0.0)):
            continue
        count += 1
        ip = float(z.to_array() @ w.to_array())
        assert ip >= -1e-12, f"pair {count}: inner product {ip:.3e}"


def test_comp_pair_check_accepts_known_pair():
    z = PointZ(np.array([5.0, 5.0]), np.array([3.0, 4.0]))
    w = PointZ(np.array([1.0, 1.0]), np.array([-0.6, -0.8]) * 2.0)
    # <z, w> = 10 + (-3.6 - 6.4) = 0 with z in L, w in M
    assert comp_pair_check(z, w, 1e-9)
    assert not comp_pair_check(z, PointZ(w.x, w.u + 0.1), 1e-9)


def test_comp_pair_check_dim_mismatch():
    z = PointZ(np.ones(2), np.ones(2))
    w = PointZ(np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        comp_pair_check(z, w)


def test_orthant_comp_violation_values():
    assert orthant_comp_violation([1.0, 0.0], [0.0, 2.0]) == 0.0
    assert orthant_comp_violation([0.0, 0.0], [0.0, 0.0]) == 0.0
    v = orthant_comp_violation([-1.0, 0.0], [0.0, 0.0])
    assert abs(v - 0.5) <= 1e-15, f"negativity not scaled as expected: {v}"
    assert orthant_comp_violation([1.0], [1.0]) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        orthant_comp_violation([1.0], [1.0, 2.0])


def test_certificate_requires_positive_multiplier():
    cert = CertificateIII(lambda_=2.0, max_violation=1e-12)
    assert cert.lambda_ == 2.0
    with pytest.raises(ValueError):
        CertificateIII(lambda_=0.0, max_violation=0.0)
    with pytest.raises(ValueError):
        CertificateIII(lambda_=-1.0, max_violation=0.0)


def test_classify_pair_u_zero():
    z = PointZ(np.array([1.0, 0.0]), np.zeros(2))
    w = PointZ(np.array([0.0, 3.0]), np.zeros(2))
    case, cert = classify_pair(z, w)
    assert case is PairCase.U_ZERO and cert is None


def test_classify_pair_v_zero():
    # u != 0, image norm part zero: needs x on the cone boundary face
    z = PointZ(np.array([5.0, 5.0]), np.array([3.0, 4.0]))
    w = PointZ(np.array([0.0, 0.0]), np.zeros(2))
    case, cert = classify_pair(z, w)
    assert case is PairCase.V_ZERO and cert is None


def test_classify_pair_general_recovers_multiplier():
    rng = np.random.default_rng(41)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        u = rng.uniform(-2.0, 2.0, l)
        while np.linalg.norm(u) < 0.3:
            u = rng.uniform(-2.0, 2.0, l)
        nu = np.linalg.norm(u)
        lam = rng.uniform(0.5, 3.0)
        # x on the boundary where it pairs with a positive y entry
        mask = np.zeros(k, dtype=bool)
        mask[int(rng.integers(0, k))] = True
        y = np.where(mask, 1.0, 0.0)
        y *= lam * nu / y.sum()
        x = nu + np.where(mask, 0.0, rng.uniform(0.1, 1.0, k))
        z = PointZ(x, u)
        w = PointZ(y, -lam * u)
        case, cert = classify_pair(z, w, 1e-9)
        assert case is PairCase.GENERAL, f"trial {trial}: got {case}"
        assert abs(cert.lambda_ - lam) <= 1e-9 * (1.0 + lam), f"trial {trial}"
        assert cert.max_violation <= 1e-9, f"trial {trial}: {cert.max_violation:.3e}"


def test_classify_pair_rejects_non_complementary():
    z = PointZ(np.array([5.0, 5.0]), np.array([3.0, 4.0]))
    w = PointZ(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    case, cert = classify_pair(z, w)
    assert case is PairCase.NOT_COMPLEMENTARY and cert is None


def _reference_classify(z, w, tol):
    """classify_pair as first written: comp_pair_check through in_esoc and
    in_esoc_dual, every norm by np.linalg.norm, recomputed where used."""
    def in_l(p):
        nu = np.linalg.norm(p.u)
        return p.x.min() >= nu - tol * (1.0 + nu)

    def in_m(p):
        nu = np.linalg.norm(p.u)
        return p.x.sum() >= nu - tol * (1.0 + nu) and p.x.min() >= -tol

    za, wa = z.to_array(), w.to_array()
    if not (in_l(z) and in_m(w) and abs(za @ wa) <= tol * (1.0 + np.linalg.norm(za) * np.linalg.norm(wa))):
        return PairCase.NOT_COMPLEMENTARY, None
    nu = np.linalg.norm(z.u)
    if nu <= tol * (1.0 + np.linalg.norm(za)):
        return PairCase.U_ZERO, None
    nv = np.linalg.norm(w.u)
    if nv <= tol * (1.0 + np.linalg.norm(wa)):
        return PairCase.V_ZERO, None
    y, v, a = w.x, w.u, z.x - nu
    lam = float(y.sum() / nu)
    orthant = max(
        max(0.0, -a.min()) / (1.0 + np.abs(a).max()),
        max(0.0, -y.min()) / (1.0 + np.abs(y).max()),
        abs(a @ y) / (1.0 + np.linalg.norm(a) * np.linalg.norm(y)),
    )
    violation = max(np.abs(v + lam * z.u).max() / (1.0 + nv), abs(y.sum() - nv) / (1.0 + nv), float(orthant))
    return PairCase.GENERAL, (lam, float(violation))


def _pairs():
    """Planted solution pairs of every case, the same nudged at several
    scales, pairs with u = 0 or v = 0, and random pairs."""
    rng = np.random.default_rng(16)
    pairs = []
    for case in ("vi", "i", "ii"):
        for seed in range(200, 215):
            inst = make_instance(case, 1 + seed % 5, 1 + seed % 3, seed)
            z = inst.solution
            pairs.append((z, affine_map(inst.problem, z)))
            for scale in (1e-12, 1e-9, 1e-7, 1e-5):
                nudged = PointZ(z.x + scale * rng.standard_normal(z.x.size), z.u)
                pairs.append((nudged, affine_map(inst.problem, nudged)))
    for k, l in ((1, 1), (2, 3), (4, 2)):
        for _ in range(10):
            x, u = rng.uniform(0.0, 2.0, k), rng.uniform(-1.0, 1.0, l)
            y, v = rng.uniform(0.0, 2.0, k), rng.uniform(-1.0, 1.0, l)
            pairs.append((PointZ(x, np.zeros(l)), PointZ(np.where(x > 1.0, 0.0, y), v)))
            pairs.append((PointZ(x + np.linalg.norm(u), u), PointZ(y, np.zeros(l))))
            pairs.append((PointZ(rng.uniform(-1.0, 2.0, k), u), PointZ(rng.uniform(-1.0, 2.0, k), v)))
    return pairs


def test_classify_pair_is_not_complementary_exactly_when_comp_pair_check_fails():
    pairs = _pairs()
    seen = set()
    for tol in (0.0, 1e-9, 1e-6, 1e-3):
        for z, w in pairs:
            case, cert = classify_pair(z, w, tol)
            seen.add(case)
            assert (case is PairCase.NOT_COMPLEMENTARY) is (not comp_pair_check(z, w, tol))
            ref_case, ref_cert = _reference_classify(z, w, tol)
            assert case is ref_case
            if cert is not None:
                assert (cert.lambda_, cert.max_violation) == ref_cert
    assert seen == set(PairCase)
