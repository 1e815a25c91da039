"""Closed-form collar geometry against frozen high-precision values and
monotonicity/bound sweeps."""

import math

import pytest

from cheegernet.hypmath import (
    ARCSINH_ONE,
    DomainError,
    _require_finite,
    _require_positive,
    check_delta,
    check_margulis,
    collar_width,
    cusp_collar,
    delta1,
    thin_boundary_length,
    thin_collar_area,
    thin_half_width,
)


# Collar lemmas the package never calls, checked here and in the acceptance
# tests.


def shrunk_collar_area_bound(l: float, eps: float, delta0: float) -> tuple[float, bool]:
    """Area of the collar shrunk by delta0, plus the half-area certificate.

    For delta0 <= ln(4/3) and l <= 2*arcsinh((sqrt(3)/4)*sinh(eps)) the shrunk
    collar C(gamma, h - delta0) still holds more than half the full collar
    area, which in turn is at least the closed-form floor
    (2d/sinh(d)) * sqrt(sinh(eps)^2 - sinh(d)^2) at d = arcsinh((sqrt(3)/4)*sinh(eps)).

    Returns (area_shrunk, holds) where holds checks both inequalities.
    """
    eps = check_margulis(eps)
    l = _require_positive("l", l)
    delta0 = _require_finite("delta0", delta0)
    if delta0 < 0.0:
        raise DomainError(f"delta0 must be >= 0, got {delta0!r}")
    if delta0 > math.log(4.0 / 3.0):
        raise DomainError(f"delta0 must be <= ln(4/3), got {delta0!r}")
    d = math.asinh(math.sqrt(3.0) / 4.0 * math.sinh(eps))
    if l > 2.0 * d:
        raise DomainError(
            f"need l <= 2*arcsinh((sqrt(3)/4)*sinh(eps)) = {2.0 * d!r}, got {l!r}"
        )
    h = thin_half_width(l, eps)
    if not delta0 < h:
        raise DomainError(f"delta0={delta0!r} does not stay below the half-width {h!r}")
    area_shrunk = 2.0 * l * math.sinh(h - delta0)
    floor = (2.0 * d / math.sinh(d)) * math.sqrt(
        max(math.sinh(eps) ** 2 - math.sinh(d) ** 2, 0.0)
    )
    holds = area_shrunk > 0.5 * thin_collar_area(l, eps) and area_shrunk > floor
    return area_shrunk, holds


def thin_separation(l: float, eps: float) -> float:
    """Distance collar_width(l) - thin_half_width(l, eps) from the thin collar
    boundary to the full collar boundary.

    Strictly increasing in l on (0, 2*eps), always above ln(1/sinh(eps)), and
    tending to that floor as l -> 0+.  Two distinct eps-thin collars are
    therefore at least 2*ln(1/sinh(eps)) apart.
    """
    eps = check_margulis(eps)
    l = _require_positive("l", l)
    if l >= 2.0 * eps:
        raise DomainError(f"need l < 2*eps, got l={l!r}, eps={eps!r}")
    return collar_width(l) - thin_half_width(l, eps)


# 50-digit reference values, frozen from an independent high-precision
# evaluation of the defining formulas.
ORACLE = {
    "arcsinh_one": 0.88137358701954302523260932497979230902816032826164,
    "collar_width_0.5": 2.0846309693248756963103132634651363358129242802267,
    "collar_width_2.0": 0.77193683290530472507063914003518534379225799236254,
    "thin_half_width_0.2_0.5": 2.3328756810427766470519415880175350674068066927219,
    "thin_half_width_0.999_0.5": 0.04653660901311459513038572513412284700337699867498,
    "thin_boundary_length_0.3_0.5": 1.0382926309769729834223622011119813464131977801413,
    "thin_collar_area_0.2_0.5": 2.0421047589802868146917335272209809657424583006768,
    "cusp_lam_0.3": 0.60904058689428523791687053401019045819604846536036,
    "thin_separation_0.4_0.5": 0.70140784578132120662407020569429474502676216736267,
    "log_inv_sinh_0.5": 0.65182232594702720043887576652550626995247804105245,
    "delta1_0.5": 0.22376876317600209941431683159354046206026491863956,
    # extremal shrunk collar at eps=0.8, delta0=ln(4/3), l exactly 2d
    "shrunk_l_ext": 0.75132572472092349450458883232083148524329992486957,
    "shrunk_area_ext": 2.2462036106855749412191585300254924881654592474657,
    "shrunk_full_ext": 3.1280184313515954350851692624406411041307235275694,
    "shrunk_half_ext": 1.5640092156757977175425846312203205520653617637847,
}

TOL = 1e-12


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestFrozenValues:
    def test_arcsinh_one(self):
        assert close(ARCSINH_ONE, ORACLE["arcsinh_one"])

    def test_collar_width(self):
        assert close(collar_width(0.5), ORACLE["collar_width_0.5"])
        assert close(collar_width(2.0), ORACLE["collar_width_2.0"])

    def test_thin_half_width(self):
        assert close(thin_half_width(0.2, 0.5), ORACLE["thin_half_width_0.2_0.5"])
        assert close(
            thin_half_width(0.999, 0.5), ORACLE["thin_half_width_0.999_0.5"]
        )

    def test_thin_boundary_length(self):
        assert close(
            thin_boundary_length(0.3, 0.5), ORACLE["thin_boundary_length_0.3_0.5"]
        )

    def test_thin_collar_area(self):
        assert close(thin_collar_area(0.2, 0.5), ORACLE["thin_collar_area_0.2_0.5"])

    def test_cusp_collar(self):
        c = cusp_collar(0.3)
        assert close(c.lam, ORACLE["cusp_lam_0.3"])
        assert c.boundary_length == c.lam
        assert c.area == c.lam
        assert c.lam < 2.0

    def test_thin_separation(self):
        assert close(thin_separation(0.4, 0.5), ORACLE["thin_separation_0.4_0.5"])

    def test_delta1(self):
        assert close(delta1(0.5), ORACLE["delta1_0.5"])

    def test_shrunk_collar_extremal(self):
        # At the largest admissible core length the shrunk area halves the
        # full area exactly and meets the floor exactly.
        eps = 0.8
        d0 = math.log(4.0 / 3.0)
        l_ext = ORACLE["shrunk_l_ext"]
        area, holds = shrunk_collar_area_bound(l_ext, eps, d0)
        assert close(area, ORACLE["shrunk_area_ext"])
        full = thin_collar_area(l_ext, eps)
        assert close(full, ORACLE["shrunk_full_ext"])
        assert close(full / 2.0, ORACLE["shrunk_half_ext"])
        assert holds

    def test_mpmath_cross_check(self):
        mp_mod = pytest.importorskip("mpmath")
        mp_mod.mp.dps = 30
        w = mp_mod.acosh(mp_mod.coth(mp_mod.mpf("0.5") / 2))
        assert close(collar_width(0.5), float(w))
        h = mp_mod.acosh(mp_mod.sinh(mp_mod.mpf("0.5")) / mp_mod.sinh(mp_mod.mpf("0.2") / 2))
        assert close(thin_half_width(0.2, 0.5), float(h))


class TestInvariants:
    def test_collar_width_decreasing(self):
        prev = math.inf
        for i in range(1, 400):
            l = 0.02 * i
            w = collar_width(l)
            assert w < prev
            prev = w

    def test_half_width_below_full_width(self):
        for eps in (0.1, 0.3, 0.5, 0.7, 0.85):
            for i in range(1, 50):
                l = 2.0 * eps * i / 50.0
                assert thin_half_width(l, eps) < collar_width(l)

    def test_half_width_vanishes_at_edge(self):
        for eps in (0.2, 0.5, 0.8):
            assert thin_half_width(2.0 * eps, eps) == 0.0
            assert thin_half_width(2.0 * eps - 1e-13, eps) < 1e-5

    def test_boundary_length_bounds(self):
        for eps in (0.1, 0.4, 0.7):
            cap = 2.0 * math.sinh(eps)
            prev = None
            for i in range(1, 60):
                l = 2.0 * eps * i / 60.0
                val = thin_boundary_length(l, eps)
                assert val <= cap + 1e-12
                if prev is not None:
                    # L is increasing as l decreases toward 0
                    assert val < prev + 1e-12
                prev = val
            assert abs(thin_boundary_length(1e-9, eps) - cap) < 1e-8

    def test_area_identity_and_cap(self):
        for eps in (0.15, 0.45, 0.8):
            cap = 4.0 * math.sinh(eps)
            for i in range(1, 40):
                l = 2.0 * eps * i / 41.0
                a = thin_collar_area(l, eps)
                h = thin_half_width(l, eps)
                assert abs(a - 2.0 * l * math.sinh(h)) <= 1e-9
                assert a < cap

    def test_separation_monotone_and_limit(self):
        for eps in (0.2, 0.5, 0.8):
            floor = math.log(1.0 / math.sinh(eps))
            prev = None
            for i in range(1, 60):
                l = 2.0 * eps * i / 61.0
                s = thin_separation(l, eps)
                assert s > floor
                if prev is not None:
                    assert s > prev  # increasing in l
                prev = s
            assert abs(thin_separation(1e-8, eps) - floor) < 1e-7

    def test_delta1_below_eps(self):
        for i in range(1, 40):
            eps = ARCSINH_ONE * i / 40.5
            assert 0.0 < delta1(eps) < eps

    def test_shrunk_collar_holds_on_grid(self):
        for eps in (0.2, 0.5, 0.8):
            d = math.asinh(math.sqrt(3.0) / 4.0 * math.sinh(eps))
            for d0_frac in (0.25, 0.6, 1.0):
                d0 = d0_frac * math.log(4.0 / 3.0)
                for i in range(1, 25):
                    l = 2.0 * d * i / 25.0
                    area, holds = shrunk_collar_area_bound(l, eps, d0)
                    assert holds, (eps, d0, l)
                    assert area > 0.0


class TestDomainErrors:
    def test_margulis_range(self):
        for bad in (0.0, -0.1, ARCSINH_ONE, 1.0):
            with pytest.raises(DomainError):
                check_margulis(bad)
        check_margulis(0.5)

    def test_delta_range(self):
        bound = delta1(0.5)
        for bad in (0.0, -0.1, bound, 1.0, math.nan):
            with pytest.raises(DomainError, match=r"delta must lie in \(0, delta1\(eps\)\) = \(0, "):
                check_delta(0.5, bad)
        with pytest.raises(DomainError, match="eps must lie"):
            check_delta(ARCSINH_ONE, 0.1)
        assert check_delta(0.5, 0.5 * bound) == 0.5 * bound

    def test_collar_width_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                collar_width(bad)

    def test_thin_domain(self):
        with pytest.raises(DomainError):
            thin_half_width(1.2, 0.5)  # l > 2 eps
        with pytest.raises(DomainError):
            thin_half_width(-0.1, 0.5)
        with pytest.raises(DomainError):
            thin_separation(1.0, 0.5)  # needs l < 2 eps strictly
        thin_separation(0.999, 0.5)

    def test_shrunk_preconditions(self):
        eps = 0.5
        d = math.asinh(math.sqrt(3.0) / 4.0 * math.sinh(eps))
        with pytest.raises(DomainError):
            shrunk_collar_area_bound(2.0 * d, eps, math.log(4.0 / 3.0) + 0.01)
        with pytest.raises(DomainError):
            shrunk_collar_area_bound(2.0 * d * 1.01, eps, 0.1)
        with pytest.raises(DomainError):
            shrunk_collar_area_bound(-0.1, eps, 0.1)
