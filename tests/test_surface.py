"""Surface spec validation, domain extraction, and enumeration against
brute-force oracles."""

import itertools
import json
import math
import random

import pytest

from conftest import mask_members, oracle_piece_subsets, pieces_connected, random_spec
from cheegernet import families
from cheegernet.surface import (
    Gluing,
    OpenBoundary,
    SpecError,
    SurfaceSpec,
    boundary_length,
    connected_piece_subsets,
    domain_from_pieces,
    eval_length_expr,
    make_gluing,
    make_spec,
    require_valid,
    separating_gluings,
    spec_from_dict,
    thick_thin,
    validate,
)


def theta_spec(lengths=(1.0, 1.0, 1.0)):
    """Two pieces glued along all three slots; a closed genus-2 shape."""
    return make_spec(
        pieces=2,
        gluings=[((0, s), (1, s), lengths[s]) for s in range(3)],
        cusps=[],
    )


def chain_spec(k: int, length: float = 1.0):
    """Open chain: piece i glued to i+1, ends and third slots open."""
    gl = [((i, 1), (i + 1, 0), length) for i in range(k - 1)]
    opens = [((i, 2), length) for i in range(k)]
    opens += [((0, 0), length), ((k - 1, 1), length)]
    return make_spec(pieces=k, gluings=gl, cusps=[], opens=opens)


class TestValidation:
    def test_theta_valid(self):
        assert validate(theta_spec()) == ()

    def test_gluing_canonical_order(self):
        g = make_gluing((1, 2), (0, 1), 0.5)
        assert g.a == (0, 1) and g.b == (1, 2)

    def test_slot_reuse_rejected(self):
        spec = make_spec(
            pieces=2,
            gluings=[((0, 0), (1, 0), 1.0), ((0, 0), (1, 1), 1.0)],
            cusps=[(0, 1), (0, 2), (1, 2)],
        )
        assert any("slot" in p for p in validate(spec))

    def test_unused_slot_rejected(self):
        spec = make_spec(
            pieces=2,
            gluings=[((0, 0), (1, 0), 1.0)],
            cusps=[(0, 1), (1, 1), (1, 2)],
        )
        assert validate(spec) != ()

    def test_self_slot_gluing_rejected(self):
        with pytest.raises(SpecError):
            make_gluing((0, 1), (0, 1), 1.0)

    def test_out_of_range_rejected(self):
        spec = make_spec(
            pieces=1,
            gluings=[],
            cusps=[(0, 0), (0, 1), (0, 3)],
        )
        assert validate(spec) != ()
        spec = make_spec(pieces=1, gluings=[], cusps=[(-1, 0), (0, 1), (0, 2)])
        assert validate(spec) != ()

    def test_bad_lengths_rejected(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            spec = make_spec(
                pieces=2,
                gluings=[((0, s), (1, s), 1.0 if s else bad) for s in range(3)],
                cusps=[],
            )
            assert validate(spec) != ()

    def test_disconnected_rejected(self):
        spec = make_spec(
            pieces=2,
            gluings=[],
            cusps=[(p, s) for p in range(2) for s in range(3)],
        )
        assert any("connect" in p for p in validate(spec))

    def test_require_valid_raises(self):
        spec = make_spec(pieces=1, gluings=[], cusps=[(0, 0)])
        with pytest.raises(SpecError):
            require_valid(spec)

    def test_single_piece_cusped(self):
        spec = make_spec(pieces=1, gluings=[], cusps=[(0, 0), (0, 1), (0, 2)])
        assert validate(spec) == ()

    def test_self_gluing_allowed(self):
        spec = make_spec(
            pieces=1,
            gluings=[((0, 0), (0, 1), 0.8)],
            cusps=[(0, 2)],
        )
        assert validate(spec) == ()

    def test_random_specs_valid(self):
        rng = random.Random(7)
        for _ in range(60):
            spec = random_spec(rng, max_pieces=9)
            assert validate(spec) == (), spec


class TestDomains:
    def test_theta_full_domain(self):
        spec = theta_spec()
        d = domain_from_pieces(spec, (0, 1))
        assert d.boundary == ()
        assert d.boundary_count == 0
        assert d.cusp_count == 0
        assert d.genus == 2
        assert d.area == pytest.approx(4.0 * math.pi)
        assert boundary_length(d) == 0.0

    def test_theta_half_domain(self):
        spec = theta_spec((0.5, 0.7, 0.9))
        d = domain_from_pieces(spec, (0,))
        assert d.boundary_count == 3
        assert boundary_length(d) == pytest.approx(0.5 + 0.7 + 0.9)
        assert d.genus == 0

    def test_chain_domains(self):
        spec = chain_spec(5)
        d = domain_from_pieces(spec, (1, 2, 3))
        # two cut gluings plus three open slots
        assert d.boundary_count == 5
        assert boundary_length(d) == pytest.approx(5.0)
        assert d.genus == 0
        assert d.area == pytest.approx(6.0 * math.pi)

    def test_disconnected_subset_rejected(self):
        spec = chain_spec(5)
        with pytest.raises(SpecError):
            domain_from_pieces(spec, (0, 2))

    def test_euler_relation_random(self):
        rng = random.Random(21)
        for _ in range(40):
            spec = random_spec(rng, max_pieces=8)
            for mask in connected_piece_subsets(spec, spec.pieces):
                members = mask_members(mask)
                d = domain_from_pieces(spec, members)
                k = len(members)
                assert d.boundary_count + d.cusp_count - 2 + 2 * d.genus == k
                assert d.genus >= 0
                assert d.boundary_count <= 3 * k
                assert d.area == pytest.approx(2.0 * math.pi * k)


class TestEnumeration:
    def test_subsets_match_powerset_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            spec = random_spec(rng, max_pieces=7)
            got = [mask_members(m) for m in connected_piece_subsets(spec, spec.pieces)]
            want = set()
            for r in range(1, spec.pieces + 1):
                for combo in itertools.combinations(range(spec.pieces), r):
                    if pieces_connected(spec, combo):
                        want.add(combo)
            assert len(got) == len(want) and set(got) == want
            assert set(oracle_piece_subsets(spec, spec.pieces)) == want

    def test_subsets_respect_cap(self):
        spec = chain_spec(6)
        got = [mask_members(m) for m in connected_piece_subsets(spec, 3)]
        assert all(len(m) <= 3 for m in got)
        want = list(oracle_piece_subsets(spec, 3))
        assert want == sorted(want)  # the oracle emits in sorted order
        assert sorted(got) == want

    def test_no_duplicates(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = random_spec(rng, max_pieces=8)
            seen = list(connected_piece_subsets(spec, 5))
            assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("spec, cap", [(families.pants_tree(6), 4), (families.flute(70), 6)],
                             ids=["pants_tree6-cap4", "flute70-cap6"])
    def test_matches_oracle_past_64_pieces(self, spec, cap):
        got = [mask_members(m) for m in connected_piece_subsets(spec, cap)]
        assert spec.pieces > 64 and max(max(m) for m in got) == spec.pieces - 1
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(oracle_piece_subsets(spec, cap))

    def test_cap_one_and_past_the_piece_count(self):
        rng = random.Random(23)
        for _ in range(10):
            spec = random_spec(rng, max_pieces=8)
            assert sorted(connected_piece_subsets(spec, 1)) == [1 << p for p in range(spec.pieces)]
            past = list(connected_piece_subsets(spec, spec.pieces + 5))
            assert past == list(connected_piece_subsets(spec, spec.pieces))
            assert sorted(map(mask_members, past)) == sorted(oracle_piece_subsets(spec, spec.pieces + 5))


class TestSeparating:
    def test_chain_all_separating(self):
        spec = chain_spec(4)
        assert separating_gluings(spec) == frozenset(range(3))

    def test_theta_none_separating(self):
        assert separating_gluings(theta_spec()) == frozenset()

    def test_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            spec = random_spec(rng, max_pieces=8)
            got = separating_gluings(spec)
            for gi in range(len(spec.gluings)):
                keep = [g for i, g in enumerate(spec.gluings) if i != gi]
                sub = SurfaceSpec(spec.pieces, tuple(keep), spec.cusps, spec.opens)
                disconnected = not pieces_connected(sub, range(spec.pieces))
                assert (gi in got) == disconnected


class TestThickThin:
    def test_strict_threshold(self):
        eps = 0.4
        spec = make_spec(
            pieces=2,
            gluings=[
                ((0, 0), (1, 0), 2.0 * eps),       # exactly 2 eps: thick
                ((0, 1), (1, 1), 2.0 * eps - 1e-9),  # just below: thin
                ((0, 2), (1, 2), 1.5),
            ],
            cusps=[],
        )
        tt = thick_thin(spec, eps)
        assert tt.thin_indices() == (1,)
        c = tt.thin_collars[0]
        assert c.half_width > 0.0
        assert c.area > 0.0

    def test_cusp_collars(self):
        spec = make_spec(
            pieces=1, gluings=[(((0, 0)), ((0, 1)), 1.0)], cusps=[(0, 2)]
        )
        tt = thick_thin(spec, 0.3)
        assert len(tt.cusp_collars) == 1
        assert tt.cusp_collars[0].lam == pytest.approx(2.0 * math.sinh(0.3))


class TestJson:
    def test_malformed_rejected(self):
        with pytest.raises(SpecError):
            spec_from_dict({"pieces": 2})
        with pytest.raises(SpecError):
            spec_from_dict({"pieces": "x", "gluings": [], "cusps": []})
        with pytest.raises(SpecError):
            spec_from_dict(
                {"pieces": 1, "gluings": [{"a": [0, 0], "b": [0, 1]}], "cusps": []}
            )


class TestLengthExpressions:
    def test_arithmetic(self):
        assert eval_length_expr("1/n^2", "n", 4) == pytest.approx(1.0 / 16.0)
        assert eval_length_expr("2*n - 1", "n", 3) == pytest.approx(5.0)
        assert eval_length_expr("exp(-n)", "n", 1) == pytest.approx(math.exp(-1))
        assert eval_length_expr("ln(n)", "n", 5) == pytest.approx(math.log(5))

    def test_whitelist(self):
        for bad in ("__import__('os')", "n.__class__", "open('x')", "m + 1"):
            with pytest.raises(SpecError):
                eval_length_expr(bad, "n", 2)

    def test_expression_family(self):
        doc = {
            "param": {"name": "n", "range": [2, 4]},
            "pieces": 2,
            "gluings": [
                {"a": [0, 0], "b": [1, 0], "length": "1/n"},
                {"a": [0, 1], "b": [1, 1], "length": "1/n"},
            ],
            "cusps": [[0, 2]],
            "opens": [{"at": [1, 2], "length": "2"}],
            "name": "pinch_pair",
        }
        fam = families.load_family(doc)
        assert list(fam.values()) == [2, 3, 4]
        spec = fam.instance(3)
        assert validate(spec) == ()
        assert spec.gluings[0].length == pytest.approx(1.0 / 3.0)
