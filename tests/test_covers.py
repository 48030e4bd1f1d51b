import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    CoverFamily,
    check_cover_inequality,
    cover_inequality_lhs,
    enumerate_minimal_nontrivial_covers,
    expected_cover_bound,
    is_r_cover,
    phi,
    reduction_sequence,
)

from oracles import brute_force_cover_expectation, powerset_minimal_covers


def proper_subsets(t, r, hi=None):
    """All subsets of [t] with sizes r..hi (default t-1)."""
    hi = t - 1 if hi is None else hi
    W = range(1, t + 1)
    return [A for size in range(r, hi + 1) for A in itertools.combinations(W, size)]


class TestCoverFamily:
    def test_rejects_bad_arity_and_short_members(self):
        with pytest.raises(ValueError, match="cover arity r must be >= 2, got 1"):
            CoverFamily((1, 2, 3), 1, ((1, 2),))
        with pytest.raises(ValueError, match=r"member \(3,\) has fewer than r=2 vertices"):
            CoverFamily((1, 2, 3), 2, ((1, 2), (3,)))


    @given(data=st.data())
    def test_trusted_constructor_builds_what_the_validating_one_does(self, data):
        r = data.draw(st.integers(2, 3))
        target = tuple(sorted(data.draw(st.sets(st.integers(1, 9), min_size=r))))
        raw = data.draw(st.lists(st.sets(st.integers(1, 9), min_size=r), max_size=6))
        members = tuple(sorted({tuple(sorted(m)) for m in raw}))
        trusted = CoverFamily._from_canonical(target, r, members)
        validated = CoverFamily(target, r, raw)
        assert trusted == validated
        assert (hash(trusted), repr(trusted)) == (hash(validated), repr(validated))


class TestIsRCover:
    def test_trivial_cover(self):
        assert is_r_cover((1, 2, 3), [(1, 2, 3)], 2)

    def test_missing_pair(self):
        assert not is_r_cover((1, 2, 3), [(1, 2), (2, 3)], 2)

    def test_triangle(self):
        assert is_r_cover((1, 2, 3), [(1, 2), (1, 3), (2, 3)], 2)

    def test_members_may_exceed_target(self):
        assert is_r_cover((1, 2, 3), [(1, 2, 9), (1, 3, 9), (2, 3, 9)], 2)

    def test_small_target_rejected(self):
        with pytest.raises(ValueError):
            is_r_cover((1,), [(1, 2)], 2)


class TestEnumerateMinimalCovers:
    def test_triangle_is_unique_cover(self):
        fams = enumerate_minimal_nontrivial_covers((1, 2, 3), proper_subsets(3, 2), 2)
        assert len(fams) == 1
        assert fams[0].members == ((1, 2), (1, 3), (2, 3))

    def test_small_target_rejected(self):
        with pytest.raises(ValueError, match="target has 2 vertices, need at least r=3"):
            enumerate_minimal_nontrivial_covers((1, 2), [(1, 2, 3)], 3)

    def test_only_trivial_exists(self):
        assert enumerate_minimal_nontrivial_covers((1, 2, 3, 4), [(1, 2, 3, 4)], 2) == []

    def test_members_exceeding_target(self):
        fams = enumerate_minimal_nontrivial_covers(
            (1, 2, 3), [(1, 2, 9), (1, 3, 9), (2, 3, 9)], 2
        )
        assert len(fams) == 1
        assert fams[0].members == ((1, 2, 9), (1, 3, 9), (2, 3, 9))

    def test_frozen_counts(self):
        # counts verified against the powerset oracle
        expected = {(2, 3): 1, (2, 4): 15, (3, 4): 1, (3, 5): 31, (4, 5): 1}
        for (r, t), count in expected.items():
            W = tuple(range(1, t + 1))
            fams = enumerate_minimal_nontrivial_covers(W, proper_subsets(t, r), r)
            assert len(fams) == count, (r, t)

    def test_every_family_is_minimal_cover(self):
        W = tuple(range(1, 5))
        for fam in enumerate_minimal_nontrivial_covers(W, proper_subsets(4, 2), 2):
            assert fam.is_nontrivial
            assert is_r_cover(W, fam.members, 2)
            for member in fam.members:
                rest = [A for A in fam.members if A != member]
                assert not is_r_cover(W, rest, 2)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_powerset_oracle(self, data):
        r = data.draw(st.integers(2, 3))
        t = data.draw(st.integers(r + 1, 5))
        W = tuple(range(1, t + 1))
        pool = proper_subsets(t, r) + [
            tuple(range(1, t + 2)),  # superset of W, must be ignored
            (1, t + 1),  # meets W in < r vertices
        ]
        cands = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        # the input is canonicalized: reversed target and members give the same result
        fams = enumerate_minimal_nontrivial_covers(W[::-1], [c[::-1] for c in cands], r)
        for fam in fams:  # the trusted constructor built what the public one would
            assert fam == CoverFamily(fam.target, fam.r, fam.members)
        families = [fam.members for fam in fams]
        assert families == sorted(families)
        assert len(set(families)) == len(families)  # no family is repeated
        got = set(families)
        want = {
            tuple(sorted(f)) for f in powerset_minimal_covers(W, cands, r)
            # oracle scans raw candidates; drop families using unusable members
            if all(len(set(m) & set(W)) >= r and not set(W) <= set(m) for m in f)
        }
        assert got == want

    def test_deterministic_order(self):
        W = (1, 2, 3, 4)
        a = enumerate_minimal_nontrivial_covers(W, proper_subsets(4, 2), 2)
        b = enumerate_minimal_nontrivial_covers(W, list(reversed(proper_subsets(4, 2))), 2)
        assert a == b


class TestPhi:
    def test_all_r_subsets(self):
        for t, r in [(3, 2), (4, 2), (5, 3)]:
            W = tuple(range(1, t + 1))
            fam = CoverFamily(W, r, tuple(itertools.combinations(W, r)))
            assert phi(fam, t) == t - r

    def test_trivial_family(self):
        fam = CoverFamily((1, 2, 3, 4), 2, ((1, 2, 3, 4),))
        assert phi(fam, 4) == 2

    def test_triangle_inside_four_set(self):
        fam = CoverFamily((1, 2, 3, 4), 2, ((1, 2), (1, 3), (2, 3)))
        assert phi(fam, 4) == Fraction(4, 5)

    def test_validates(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2),))
        with pytest.raises(ValueError):
            phi(fam, 2)
        with pytest.raises(ValueError):
            phi(CoverFamily((1, 2, 3), 2, ()), 3)


class TestCoverInequality:
    def test_triangle_achieves_equality(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2), (1, 3), (2, 3)))
        assert cover_inequality_lhs(fam, 3) == -3
        assert check_cover_inequality(fam, 3)

    def test_non_cover_rejected(self):
        fam = CoverFamily((1, 2, 3, 4), 2, ((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            check_cover_inequality(fam, 4)

    def test_trivial_rejected(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2, 3),))
        with pytest.raises(ValueError):
            check_cover_inequality(fam, 3)

    def test_non_minimal_rejected(self):
        members = ((1, 2), (1, 3), (2, 3), (1, 2, 3))
        fam = CoverFamily((1, 2, 3), 2, members)
        with pytest.raises(ValueError):
            check_cover_inequality(fam, 3)

    def test_out_of_range_arguments_rejected(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(ValueError, match="need t > r, got t=2, r=2"):
            check_cover_inequality(fam, 2)
        with pytest.raises(ValueError, match="target has 3 vertices, expected t=4"):
            check_cover_inequality(fam, 4)
        with pytest.raises(ValueError, match="family must be non-empty"):
            cover_inequality_lhs(CoverFamily((1, 2, 3), 2, ()), 3)

    def test_holds_for_34_families(self):
        W = (1, 2, 3, 4)
        fams = enumerate_minimal_nontrivial_covers(W, proper_subsets(4, 3), 3)
        assert len(fams) == 1
        assert check_cover_inequality(fams[0], 4)

    def test_equivalent_to_weight_bound(self):
        for r, t in [(2, 3), (2, 4), (3, 4)]:
            W = tuple(range(1, t + 1))
            for fam in enumerate_minimal_nontrivial_covers(W, proper_subsets(t, r), r):
                lhs_holds = cover_inequality_lhs(fam, t) <= -t
                assert lhs_holds == (phi(fam, t) >= t - r)
                assert check_cover_inequality(fam, t) == lhs_holds


class TestReductionSequence:
    def test_trivial_cover_of_triple(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2, 3),))
        seq = reduction_sequence(fam, 3)
        assert len(seq) == 2
        assert [w for _, w in seq] == [1, 1]
        assert seq[-1][0].members == ((1, 2), (1, 3), (2, 3))

    def test_triangle_fixed_point(self):
        fam = CoverFamily((1, 2, 3), 2, ((1, 2), (1, 3), (2, 3)))
        seq = reduction_sequence(fam, 3)
        assert all(step.members == fam.members for step, _ in seq)
        assert [w for _, w in seq] == [1, 1, 1, 1]

    def test_mixed_family_weights_non_increasing(self):
        fam = CoverFamily((1, 2, 3, 4), 2, ((1, 2, 3), (3, 4)))
        seq = reduction_sequence(fam, 4)
        weights = [w for _, w in seq]
        assert weights == [Fraction(7, 5), Fraction(6, 5), Fraction(6, 5)]
        assert all(b <= a for a, b in zip(weights, weights[1:]))

    def test_terminal_family_for_covers(self):
        W = (1, 2, 3, 4)
        full = tuple(itertools.combinations(W, 2))
        for fam in enumerate_minimal_nontrivial_covers(W, proper_subsets(4, 2), 2):
            seq = reduction_sequence(fam, 4)
            weights = [w for _, w in seq]
            assert all(b <= a for a, b in zip(weights, weights[1:]))
            assert seq[-1][0].members == full
            assert weights[-1] == 2


    @pytest.mark.parametrize("t, r", [(4, 2), (5, 3)])
    def test_steps_equal_the_validating_constructor(self, t, r):
        W = range(1, t + 1)
        families = enumerate_minimal_nontrivial_covers(W, proper_subsets(t, r), r)
        families.append(CoverFamily(W, r, [(1, 2, 3, 7, 8), tuple(range(2, t + 2))]))
        for fam in families:
            for step, _ in reduction_sequence(fam, t):
                rebuilt = CoverFamily(step.target, step.r, step.members)
                assert step == rebuilt
                assert (hash(step), repr(step)) == (hash(rebuilt), repr(rebuilt))


class TestExpectedCoverBound:
    def test_single_trace_for_t3(self):
        report = expected_cover_bound(10, 4, 2, 3, Fraction(1, 7))
        assert report.trace_count == 1
        fam, term = report.bound_terms[0]
        assert fam.members == ((1, 2), (1, 3), (2, 3))
        from math import comb
        assert term == Fraction(comb(10, 2)) ** 3 * Fraction(1, 7) ** 3
        assert report.total == term

    def test_zero_probability(self):
        report = expected_cover_bound(50, 5, 2, 4, 0)
        assert report.total == 0
        assert report.reference == 0
        assert report.ratio == 0

    def test_desk_scale_ratio(self):
        # p chosen as the conservative rational rounding of 200 ** -2.75
        from ramseykit import parse_probability
        p = parse_probability("n^-2.75", 200)
        report = expected_cover_bound(200, 4, 2, 3, p)
        assert report.ratio < Fraction(1, 10)

    def test_trace_members_capped_by_s(self):
        # s = t means member sizes run up to t - 1 regardless
        report = expected_cover_bound(12, 4, 2, 4, Fraction(1, 2))
        assert report.trace_count == 15
        for fam, _ in report.bound_terms:
            assert all(2 <= len(A) <= 3 for A in fam.members)

    @pytest.mark.parametrize("n, s, r, t, p", [
        (7, 3, 2, 3, Fraction(1, 7)),
        (8, 4, 2, 3, Fraction(1, 7)),
        (8, 4, 3, 4, Fraction(1, 7)),
        (7, 5, 2, 3, Fraction(1, 7)),
        (5, 4, 2, 3, Fraction(1)),  # one cover: the three 4-sets {a, b, 4, 5}
        (7, 3, 2, 3, Fraction(0)),
    ])
    def test_exact_matches_brute_force_sum(self, n, s, r, t, p):
        report = expected_cover_bound(n, s, r, t, p)
        assert report.exact == brute_force_cover_expectation(n, s, r, t, p)
        assert report.exact <= report.total

    def test_validates(self):
        with pytest.raises(ValueError):
            expected_cover_bound(10, 3, 2, 4, Fraction(1, 2))
        with pytest.raises(ValueError):
            expected_cover_bound(10, 4, 2, 3, 2)
        with pytest.raises(ValueError, match="need n >= s, got n=3, s=5"):
            expected_cover_bound(3, 5, 2, 3, Fraction(1, 2))
