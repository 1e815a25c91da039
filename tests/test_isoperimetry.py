"""Isoperimetric minima against all-subsets brute force, plus regularity
and trend classification."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import boundary_split, oracle_piece_subsets, pieces_connected, random_spec
from cheegernet import families, isoperimetry
from cheegernet.hypmath import DomainError, delta1
from cheegernet.isoperimetry import (
    cheeger_lower_bound,
    domain_reports,
    family_csv,
    fit_loglog,
    is_decaying,
    lii_verdict,
    CSV_HEADER,
)
from cheegernet.surface import (
    BoundaryCurve,
    SurfaceSpec,
    boundary_length,
    domain_from_pieces,
    make_spec,
)


def brute_h_g(spec, max_pieces):
    best = math.inf
    for r in range(1, min(max_pieces, spec.pieces) + 1):
        for combo in itertools.combinations(range(spec.pieces), r):
            if not pieces_connected(spec, combo):
                continue
            d = domain_from_pieces(spec, combo)
            best = min(best, boundary_length(d) / d.area)
    return best


class TestExact:
    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            spec = random_spec(rng, max_pieces=7)
            rep, _ = domain_reports(spec, 1.0, max_pieces=spec.pieces)
            assert rep.h_g == brute_h_g(spec, spec.pieces)
            assert rep.lower_bound_certified
            # reported witness realizes the reported value
            d = rep.best_domain
            assert boundary_length(d) / d.area == rep.h_g

    def test_flute_closed_form(self):
        for n in range(2, 21):
            rep, _ = domain_reports(families.flute(n), 1.0, max_pieces=n)
            assert rep.h_g == 1.0 / (math.pi * n)
            assert len(rep.best_domain.piece_set) == n

    def test_closed_spec_gives_zero(self):
        spec = make_spec(
            pieces=2,
            gluings=[((0, s), (1, s), 1.0) for s in range(3)],
            cusps=[],
        )
        rep, _ = domain_reports(spec, 1.0, max_pieces=2)
        assert rep.h_g == 0.0
        assert rep.best_domain.boundary == ()

    def test_cap_respected(self):
        spec = families.flute(8)
        rep, _ = domain_reports(spec, 1.0, max_pieces=3)
        assert not rep.lower_bound_certified
        assert len(rep.best_domain.piece_set) <= 3
        assert rep.h_g == 1.0 / (math.pi * 3.0)

    def test_tie_break_lexicographic(self):
        # uniform chain: all size-k windows tie; smallest window wins
        spec = families.flute(6)
        rep, _ = domain_reports(spec, 1.0, max_pieces=6)
        assert rep.best_domain.piece_set == (0, 1, 2, 3, 4, 5)

    def test_tie_break_keeps_the_connected_witness(self):
        # {0, 5} and {0, 2, 5} both attain 1/(2*pi); {0, 2, 5} is not
        # connected ({2} is a separate component of ratio 1/(2*pi)), so an
        # optimal set taken from a min cut must be cut down to the
        # component holding the first piece to give this witness.
        spec = make_spec(
            6,
            [((0, 0), (5, 0), 1.0), ((0, 2), (1, 0), 1.0), ((5, 2), (4, 0), 1.0),
             ((2, 0), (3, 0), 1.0), ((1, 1), (3, 1), 8.0), ((3, 2), (4, 1), 8.0)],
            cusps=[(0, 1), (2, 1), (2, 2), (5, 1)],
            opens=[((1, 2), 50.0), ((4, 2), 50.0)],
        )
        rep, _ = domain_reports(spec, 1.0, max_pieces=6)
        assert rep.h_g == 1.0 / (2.0 * math.pi)
        assert rep.best_domain.piece_set == (0, 5)


def brute_domain_reports(spec, delta, max_pieces):
    """(h_g, best domain, worst_c, witness, examined) from a domain built
    for every connected piece set of the recursive oracle enumeration,
    lengths summed in boundary order."""
    ratios, regularity = [], []
    for members in oracle_piece_subsets(spec, max_pieces):
        d = domain_from_pieces(spec, members)
        total = 0.0
        for c in d.boundary:
            total += c.length
        ratios.append((total / d.area, members))
        long_total, short_count = boundary_split(d, delta)
        regularity.append((long_total / short_count if short_count else math.inf, members))
    h_g, best = min(ratios)
    worst, witness = min(regularity)
    return (
        h_g,
        domain_from_pieces(spec, best),
        worst,
        domain_from_pieces(spec, witness) if worst < math.inf else None,
        len(ratios),
    )


def spec_boundary(spec, members):
    """The boundary of a piece set read straight off the spec: the gluings
    with exactly one end in the set, by index, then the open curves of its
    pieces, by index.  It shares no table with `domain_from_pieces`, whose
    order the domain scan follows."""
    inset = set(members)
    cut = [BoundaryCurve("gluing", i, g.length) for i, g in enumerate(spec.gluings)
           if (g.a[0] in inset) != (g.b[0] in inset)]
    opens = [BoundaryCurve("open", i, o.length) for i, o in enumerate(spec.opens)
             if o.at[0] in inset]
    return tuple(cut + opens)


class TestBoundaryOrder:
    def test_matches_the_spec_order(self):
        # gluings and open curves are shuffled, so index order differs from
        # piece order and from the order a piece-by-piece walk would give
        rng = random.Random(1806)
        for _ in range(60):
            spec = random_spec(rng, max_pieces=9, thin_below=0.6)
            spec = SurfaceSpec(spec.pieces, tuple(rng.sample(spec.gluings, len(spec.gluings))),
                               spec.cusps, tuple(rng.sample(spec.opens, len(spec.opens))))
            for members in oracle_piece_subsets(spec, 5):
                assert domain_from_pieces(spec, members).boundary == spec_boundary(spec, members)


def equal_ladder(n):
    """genus_ladder(n) with every gluing and open curve of length 1."""
    spec = families.genus_ladder(n)
    return make_spec(spec.pieces, [(g.a, g.b, 1.0) for g in spec.gluings], spec.cusps,
                     [(o.at, 1.0) for o in spec.opens])


class TestDomainReports:
    @pytest.mark.parametrize("cap", [1, 2, 4, 12])
    def test_matches_domain_by_domain_oracle(self, cap):
        rng = random.Random(400 + cap)
        for _ in range(25):
            spec = random_spec(rng, max_pieces=9, thin_below=0.6)
            delta = rng.choice([0.3, 0.6, 1.2])
            iso, reg = domain_reports(spec, delta, max_pieces=cap)
            got = (iso.h_g, iso.best_domain, reg.worst_c, reg.witness, iso.examined)
            assert repr(got) == repr(brute_domain_reports(spec, delta, cap))
            assert reg.examined == iso.examined and reg.delta == delta

    @staticmethod
    def assert_matches_oracle(spec, delta, cap):
        iso, reg = domain_reports(spec, delta, max_pieces=cap)
        got = (iso.h_g, iso.best_domain, reg.worst_c, reg.witness, iso.examined)
        assert repr(got) == repr(brute_domain_reports(spec, delta, cap))

    @pytest.mark.parametrize("spec", [families.pants_tree(3), families.pants_tree(4),
                                      equal_ladder(4), equal_ladder(6)],
                             ids=["pants_tree3", "pants_tree4", "equal_ladder4", "equal_ladder6"])
    @pytest.mark.parametrize("delta", [0.5, 1.5])
    def test_tie_heavy_symmetric_specs(self, spec, delta):
        # every length is 1: h_g and, at delta 1.5, worst_c = 0 tie on many sets
        self.assert_matches_oracle(spec, delta, 12)

    def test_ties_across_chunks(self, monkeypatch):
        monkeypatch.setattr(isoperimetry, "_CHUNK", 5)
        for spec in (families.pants_tree(3), equal_ladder(4), families.flute(9)):
            for delta in (0.5, 1.5):
                self.assert_matches_oracle(spec, delta, 8)
        rng = random.Random(91)
        for _ in range(20):
            self.assert_matches_oracle(random_spec(rng, max_pieces=9, thin_below=0.6),
                                       rng.choice([0.3, 0.6, 1.2]), 12)

    def test_least_set_in_any_column_order(self):
        # tied sets arrive in enumeration order; the rule must not depend on
        # it, so shuffle sets that share prefixes and compare sorted tuples
        rng = random.Random(37)
        subsets = [c for r in range(1, 7) for c in itertools.combinations(range(6), r)]
        for _ in range(300):
            sets = rng.sample(subsets, rng.randint(1, 12))
            inside = np.zeros((6, len(sets)), dtype=bool)
            for j, members in enumerate(sets):
                inside[list(members), j] = True
            cols = np.array(sorted(rng.sample(range(len(sets)), rng.randint(1, len(sets)))))
            want = min(cols, key=lambda j: sets[j])
            assert isoperimetry._least(inside, cols) == want

    @pytest.mark.parametrize("spec, cap", [(families.pants_tree(6), 3), (families.flute(70), 4)],
                             ids=["pants_tree6-cap3", "flute70-cap4"])
    def test_past_64_pieces(self, spec, cap):
        for delta in (0.5, 1.5):
            self.assert_matches_oracle(spec, delta, cap)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            domain_reports(families.flute(3), 0.0)

    def test_chunks_do_not_overlap_in_memory(self):
        """A 300-piece chain at cap 300 takes three chunks, at cap 60 one
        nearly full one; each chunk's arrays must die before the next chunk
        is built, so the three-chunk scan peaks no higher than the one-chunk
        scan.  Keeping one chunk alive while the next is built costs about
        5 MiB on top of the one-chunk peak of about 7 MiB."""
        peaks = []
        for cap in (60, 300):
            tracemalloc.start()
            try:
                iso, _ = domain_reports(families.flute(300), 0.3, max_pieces=cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert -(-iso.examined // isoperimetry._CHUNK) == (1 if cap == 60 else 3)
        assert peaks[1] < 1.25 * peaks[0]


class TestRegularity:
    def test_flute_inf_below_one(self):
        for delta in (0.3, 0.9, 0.999):
            _, rep = domain_reports(families.flute(6), delta, max_pieces=6)
            assert math.isinf(rep.worst_c)

    def test_shrinking_zero(self):
        n = 6
        spec = families.shrinking_flute(n)
        _, rep = domain_reports(spec, 1.0 / n, max_pieces=4)
        assert rep.worst_c == 0.0
        assert rep.witness is not None
        long_total, short_count = boundary_split(rep.witness, 1.0 / n)
        assert long_total == 0.0 and short_count > 0

    def test_zero_over_zero_is_inf(self):
        spec = make_spec(
            pieces=2,
            gluings=[((0, s), (1, s), 1.0) for s in range(3)],
            cusps=[],
        )
        _, rep = domain_reports(spec, 0.5, max_pieces=2)
        # full domain has empty boundary: 0 long / 0 short counts as +inf
        assert math.isinf(rep.worst_c)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_positive(self, cap):
        with pytest.raises(DomainError):
            domain_reports(families.flute(3), 0.5, max_pieces=cap)


class TestTrends:
    def test_fit_exact_power_law(self):
        xs = [2, 4, 8, 16]
        ys = [1.0 / x for x in xs]
        slope, r2 = fit_loglog(xs, ys)
        assert slope == pytest.approx(-1.0)
        assert r2 == pytest.approx(1.0)

    def test_constant_series_not_decaying(self):
        dec, slope, r2 = is_decaying([1, 2, 3, 4], [0.5] * 4)
        assert not dec
        assert slope == pytest.approx(0.0)

    def test_shallow_decay_not_flagged(self):
        xs = list(range(2, 12))
        ys = [x ** -0.3 for x in xs]
        dec, slope, _ = is_decaying(xs, ys)
        assert not dec
        assert -0.5 < slope < 0.0

    def test_zero_value_short_circuits(self):
        dec, slope, r2 = is_decaying([1, 2], [0.5, 0.0])
        assert dec and slope is None

    def test_cheeger_lower_bound(self):
        assert cheeger_lower_bound(0.0) == 0.0
        assert cheeger_lower_bound(1.0) == pytest.approx(0.5)
        h = cheeger_lower_bound(0.25)
        assert h == pytest.approx(0.2)
        with pytest.raises(DomainError):
            cheeger_lower_bound(-0.1)


class TestFamilySweep:
    def test_flute_no_lii_at_full_cap(self):
        fam = families.load_family(families.bundled_path("flute.family.json"))
        rep = lii_verdict(fam, delta=0.15, max_pieces=20)
        assert rep.verdict == "no_LII_evidence"
        assert rep.slope == pytest.approx(-1.0, abs=1e-9)
        hg_last = rep.rows[-1].h_g
        assert rep.h_lower_bound == pytest.approx(hg_last / (1 + hg_last))

    def test_tree_has_lii_at_cap(self):
        fam = families.load_family({"family": "pants_tree",
                                    "param": {"name": "depth", "range": [3, 5]}})
        rep = lii_verdict(fam, delta=0.15, max_pieces=10)
        assert [r.param for r in rep.rows] == [3, 4, 5]
        assert rep.verdict == "has_LII_evidence"
        assert all(r.h_g > 0.15 for r in rep.rows)

    def test_csv_shape(self):
        fam = families.load_family({"family": "flute", "param": {"name": "n", "range": [2, 4]}})
        rep = lii_verdict(fam, delta=0.15, max_pieces=6)
        text = family_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        for row in lines[1:]:
            param, h_g, size, worst, verdict = row.split(",")
            int(param)
            float(h_g)
            int(size)
            assert worst == "inf" or float(worst) >= 0.0
            assert verdict in ("has_LII_evidence", "no_LII_evidence")
