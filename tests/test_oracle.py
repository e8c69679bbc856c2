import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from listradius import oracle
from listradius.core import avg_radius_poly
from listradius.errors import DomainError, SizeLimitError
from listradius.oracle import (
    MAX_AVG_TYPE_L,
    MAX_AVG_TYPE_SIZE,
    MAX_PAIRWISE_WORDS,
    REGION_BLOCK_ROWS,
    REGION_STEP,
    BinaryCode,
    JointType,
    avg_joint_type,
    avg_radius_of_type,
    average_radius,
    bernoulli_mixture_type,
    chebyshev_radius,
    joint_type,
    load_code,
    tau_list,
    weight_marginal_exact,
)
from listradius.oracle import _region_blocks


def _brute_radius(words, n):
    return min(max((c ^ w).bit_count() for w in words) for c in range(1 << n))


@st.composite
def word_lists(draw, max_n, max_size):
    n = draw(st.integers(1, max_n))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_size))


class TestChebyshevRadius:
    def test_singleton(self):
        assert chebyshev_radius([0b000], 3) == 0

    def test_antipodal_pair(self):
        assert chebyshev_radius([0b000, 0b111], 3) == 2
        assert chebyshev_radius([0b00, 0b11], 2) == 1

    def test_pair_is_half_distance(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 12)
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            d = (a ^ b).bit_count()
            assert chebyshev_radius([a, b], n) == (d + 1) // 2

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            chebyshev_radius(list(range(20)), 30)
        with pytest.raises(SizeLimitError):
            chebyshev_radius([0, 1], 25)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(word_lists(max_n=10, max_size=9))
    @example((3, [5, 1, 5]))
    @example((4, [9, 9, 9]))
    @example((6, [63, 0, 5, 0, 42]))
    @example((1, [1, 0, 1]))
    def test_equals_brute_force(self, case):
        # repeated and unsorted words; the reference loops over the centers
        n, words = case
        assert chebyshev_radius(words, n) == _brute_radius(words, n)

    def test_full_blocklength(self):
        assert chebyshev_radius([0, 2**24 - 1], 24) == 12
        assert chebyshev_radius([0b1011_0110_0101_1100_0011_1010], 24) == 0


def test_chebyshev_radius_past_pairwise_cap():
    # above MAX_PAIRWISE_WORDS words the search starts from half of one
    # word's farthest distance instead of half the diameter
    rng = random.Random(5)
    for n in (9, 10):
        words = rng.sample(range(1 << n), MAX_PAIRWISE_WORDS + 44)
        assert chebyshev_radius(words, n) == _brute_radius(words, n)


class TestAverageRadius:
    def test_antipodal_pair(self):
        assert average_radius([0b000, 0b111], 3) == Fraction(3, 2)

    def test_singleton(self):
        assert average_radius([0b10110], 5) == 0

    def test_full_square(self):
        assert average_radius([0, 1, 2, 3], 2) == 1

    def test_majority_vote_attains_minimum(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 10)
            m = rng.randint(1, 5)
            words = [rng.randrange(1 << n) for _ in range(m)]
            best = min(
                sum((y ^ w).bit_count() for w in words) for y in range(1 << n)
            )
            assert average_radius(words, n) == Fraction(best, m)

    def test_at_most_chebyshev(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 12)
            m = rng.randint(1, 6)
            words = sorted(set(rng.randrange(1 << n) for _ in range(m)))
            assert average_radius(words, n) <= chebyshev_radius(words, n)


class TestTauList:
    def test_full_square(self):
        # rad of the full 2-cube is 2 (the antipode of any center is in the
        # set), so tau = (2 - 1)/2
        code = BinaryCode(n=2, words=(0, 1, 2, 3))
        assert tau_list(code, 3) == Fraction(1, 2)

    def test_repetition_pair(self):
        for n in (3, 4, 7, 10):
            code = BinaryCode(n=n, words=(0, (1 << n) - 1))
            assert tau_list(code, 1) == Fraction((n + 1) // 2 - 1, n)

    def test_single_subset_consistency(self):
        code = BinaryCode(n=4, words=(0b0011, 0b0101, 0b0110))
        assert tau_list(code, 2) == Fraction(
            chebyshev_radius(code.words, 4) - 1, 4
        )

    def test_shift_invariance(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(3, 8)
            code = BinaryCode.random(rng, n, rng.randint(3, 6))
            L = rng.randint(1, len(code.words) - 1)
            shift = rng.randrange(1 << n)
            assert tau_list(code, L) == tau_list(code.shifted(shift), L)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(word_lists(max_n=7, max_size=8), st.data())
    def test_equals_min_over_subsets(self, case, data):
        # the definition: the least Chebyshev radius of an (L+1)-subset
        n, words = case
        words = sorted(set(words))
        assume(len(words) >= 2)
        L = data.draw(st.integers(1, len(words) - 1))
        best = min(
            _brute_radius(sub, n) for sub in itertools.combinations(words, L + 1)
        )
        assert tau_list(BinaryCode(n=n, words=tuple(words)), L) == Fraction(best - 1, n)

    def test_needs_enough_words(self):
        with pytest.raises(DomainError):
            tau_list(BinaryCode(n=3, words=(0, 1)), 2)

    def test_start_from_kth_smallest_neighbor_distance(self, monkeypatch):
        # each word's distance to its third nearest word, itself first, is
        # 2, 4, 4 or 5; the third smallest, 4, starts the search at radius 2,
        # where 112, 118 and 176 lie around center 112, and one scan of the
        # centers finds it.  The least, 2, would start it at radius 1
        covers, calls = oracle._covers, []

        def counted(*args):
            calls.append(args)
            return covers(*args)

        monkeypatch.setattr(oracle, "_covers", counted)
        assert tau_list(BinaryCode(n=8, words=(112, 118, 176, 235)), 2) == Fraction(1, 8)
        assert len(calls) == 1

    def test_many_words_within_the_work_cap(self):
        # 3 921 225 subsets of 4 words, but one cheap scan per radius: the
        # words 0, 1, 2 and 4 lie within radius 1 of center 0; the larger
        # code skips the pairwise lower bound
        assert tau_list(BinaryCode(n=7, words=tuple(range(100))), 3) == 0
        assert tau_list(BinaryCode(n=9, words=tuple(range(300))), 3) == 0


class TestBinaryCode:
    def test_orders_and_validates(self):
        code = BinaryCode.from_strings(["110", "001", "010"])
        assert code.words == (0b001, 0b010, 0b110)

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            BinaryCode.from_strings(["01", "01"])

    def test_rejects_ragged(self):
        with pytest.raises(DomainError):
            BinaryCode.from_strings(["01", "011"])

    def test_load_code(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("0110\n\n0001\n")
        code = load_code(path)
        assert code.words == (0b0001, 0b0110)

    def test_blocklength_cap(self):
        with pytest.raises(SizeLimitError):
            BinaryCode(n=25, words=(0, 1))


class TestJointType:
    def test_two_word_example(self):
        # columns of (01, 11) read bottom-up: (0,1) then (1,1)
        T = joint_type([0b01, 0b11], 2)
        assert T.counts == (0, 0, 1, 1)
        assert T.den == 2

    def test_multiset_diagonal(self):
        T = joint_type([0b0101, 0b0101], 4)
        assert T.counts == (2, 0, 0, 2)
        assert T.den == 4
        # no words: every column is the empty pattern
        T = joint_type([], 4)
        assert (T.counts, T.den) == ((4,), 4)

    def test_marginal_is_ones_density(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 12)
            words = sorted(rng.sample(range(1 << n), 3))
            T = joint_type(words, n)
            for i, w in enumerate(words):
                ones = sum(T.counts[v] for v in range(8) if (v >> i) & 1)
                assert Fraction(ones, T.den) == Fraction(w.bit_count(), n)

    def test_order_violation(self):
        with pytest.raises(DomainError):
            joint_type([0b11, 0b01], 2)

    def test_type_validation(self):
        with pytest.raises(DomainError):
            JointType(L=1, counts=(3, 2), den=6)


class TestAvgJointType:
    def test_symmetric_by_construction(self):
        rng = random.Random(4)
        code = BinaryCode.random(rng, 8, 6)
        T = avg_joint_type(code, 3)
        # every permutation of the three words maps a pattern to one of the
        # same weight, so equal mass per weight is invariance under them all
        for v, c in enumerate(T.counts):
            assert c == T.counts[(1 << v.bit_count()) - 1]

    def test_single_subset_code(self):
        code = BinaryCode(n=4, words=(0b0011, 0b1100))
        T = avg_joint_type(code, 2)
        M = joint_type(code.words, 4)
        # symmetrization of the unique subset's type
        assert T.weight_marginal() == M.weight_marginal()

    def test_weight_marginal_identity(self):
        # at the oracle caps, above the |C| <= 10, L <= 4 of the verify check
        rng = random.Random(7)
        for size in range(11, MAX_AVG_TYPE_SIZE + 1):
            for L in range(3, MAX_AVG_TYPE_L + 1):
                code = BinaryCode.random(rng, rng.randint(4, 12), size)
                marginal = avg_joint_type(code, L).weight_marginal()
                assert marginal == weight_marginal_exact(code, L), (size, L)

    def test_degenerate_marginal_is_column_histogram(self):
        # |C| = L: the hypergeometric collapses to the column weights
        code = BinaryCode(n=5, words=(0b00111, 0b01010, 0b10001))
        marg = weight_marginal_exact(code, 3)
        counts = [0] * 4
        for pos in range(5):
            counts[sum((w >> pos) & 1 for w in code.words)] += 1
        assert marg == tuple(Fraction(c, 5) for c in counts)

    def test_size_caps(self):
        rng = random.Random(0)
        with pytest.raises(SizeLimitError):
            avg_joint_type(BinaryCode.random(rng, 6, 15), 2)


class TestAvgRadiusOfType:
    def test_zero_type(self):
        T = joint_type([0, 0, 0], 4)
        for j in range(4):
            assert avg_radius_of_type(T, j) == 0

    def test_radius_with_origin_dominates(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(3, 16)
            size = rng.randint(1, 4)
            words = sorted(rng.sample(range(1, 1 << n), size))
            rad = chebyshev_radius([0] + words, n)
            T = joint_type(words, n)
            for j in range(5):
                assert Fraction(rad, n) >= avg_radius_of_type(T, j)

    def test_lipschitz_in_sup_distance(self):
        rng = random.Random(21)
        for _ in range(50):
            L = rng.randint(1, 4)
            j = rng.randint(0, 4)

            def rand_type():
                nums = [rng.randint(0, 9) for _ in range(1 << L)]
                if sum(nums) == 0:
                    nums[0] = 1
                return JointType(L=L, counts=nums, den=sum(nums))

            t1, t2 = rand_type(), rand_type()
            lhs = abs(avg_radius_of_type(t1, j) - avg_radius_of_type(t2, j))
            assert lhs <= 2 ** (L - 1) * t1.sup_distance(t2)

    def test_bernoulli_type_matches_polynomial(self):
        # a single column of density 1/2 makes the mixture a pure product
        # Bernoulli type, whose functional is the average-radius polynomial
        code = BinaryCode(n=1, words=(0, 1))
        for L in (1, 2, 3):
            T = bernoulli_mixture_type(code, L)
            for j in range(L + 1):
                assert avg_radius_of_type(T, j) == avg_radius_poly(
                    L, j, Fraction(1, 2)
                )


def _probabilities(T):
    return tuple(Fraction(c, T.den) for c in T.counts)


# Term-by-term Fraction forms of the integer-numerator oracles, as they were
# first written: the references the oracles must equal exactly.
def _ref_weight_marginal(T):
    out = [Fraction(0)] * (T.L + 1)
    for v, tv in enumerate(_probabilities(T)):
        out[v.bit_count()] += tv
    return tuple(out)


def _ref_weight_marginal_exact(code, L):
    n, M = code.n, len(code.words)
    out = [Fraction(0)] * (L + 1)
    for pos in range(n):
        mi = sum((w >> pos) & 1 for w in code.words)
        for w in range(L + 1):
            out[w] += Fraction(comb(mi, w) * comb(M - mi, L - w), comb(M, L))
    return tuple(v / n for v in out)


def _ref_bernoulli_mixture(code, L):
    n, M = code.n, len(code.words)
    t = [Fraction(0)] * (1 << L)
    for pos in range(n):
        lam = Fraction(sum((w >> pos) & 1 for w in code.words), M)
        for v in range(1 << L):
            w = v.bit_count()
            t[v] += lam**w * (1 - lam) ** (L - w)
    return tuple(v / n for v in t)


def _ref_avg_joint_type(code, L):
    n = code.n
    total_w = [0] * (L + 1)
    for sub in itertools.combinations(code.words, L):
        for pos in range(n):
            total_w[sum((word >> pos) & 1 for word in sub)] += 1
    subsets = comb(len(code.words), L)
    return tuple(
        Fraction(total_w[v.bit_count()], n * subsets * comb(L, v.bit_count()))
        for v in range(1 << L)
    )


def _ref_avg_radius_of_type(T, j):
    marginal = _ref_weight_marginal(T)
    ew = sum(w * p for w, p in enumerate(marginal))
    excess = sum(max(0, 2 * w - T.L - j) * p for w, p in enumerate(marginal))
    return (ew - excess) / (T.L + j)


def _assert_same_fractions(got, ref):
    assert all(type(v) is Fraction for v in got)
    assert got == ref


class TestIntegerOraclesMatchReferences:
    def test_random_codes(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(1, 12)
            size = rng.randint(1, min(MAX_AVG_TYPE_SIZE, 1 << n))
            L = rng.randint(1, min(MAX_AVG_TYPE_L, size))
            code = BinaryCode.random(rng, n, size)
            T = avg_joint_type(code, L)
            _assert_same_fractions(_probabilities(T), _ref_avg_joint_type(code, L))
            _assert_same_fractions(T.weight_marginal(), _ref_weight_marginal(T))
            _assert_same_fractions(
                weight_marginal_exact(code, L), _ref_weight_marginal_exact(code, L)
            )
            B = bernoulli_mixture_type(code, L)
            _assert_same_fractions(_probabilities(B), _ref_bernoulli_mixture(code, L))
            for j in range(5):
                for U in (T, B):
                    got = avg_radius_of_type(U, j)
                    _assert_same_fractions((got,), (_ref_avg_radius_of_type(U, j),))

    @pytest.mark.parametrize(
        "counts, den",
        [
            ((3, 2, 1, 0), 6),
            ((5, 14, 0, 16), 35),
            ((0, 1, 0, 0), 1),
            ((1,) * 8, 8),
            ((9, 9, 3, 4, 2, 1, 6, 2), 36),
        ],
        ids=["halves-thirds-sixths", "sevenths-fifths", "point-mass", "uniform-L3",
             "mixed-L3"],
    )
    def test_hand_built_types(self, counts, den):
        T = JointType(L=len(counts).bit_length() - 1, counts=counts, den=den)
        _assert_same_fractions(T.weight_marginal(), _ref_weight_marginal(T))
        for j in range(5):
            _assert_same_fractions(
                (avg_radius_of_type(T, j),), (_ref_avg_radius_of_type(T, j),)
            )

    @pytest.mark.parametrize(
        "counts, den, message",
        [
            ((3, -1), 2, "type entries must be nonnegative"),
            ((3, 2), 6, "type entries must sum to 1 exactly"),
            ((4, 4), 6, "type entries must sum to 1 exactly"),
        ],
        ids=["negative", "below-one", "above-one"],
    )
    def test_invalid_types_keep_their_messages(self, counts, den, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            JointType(L=1, counts=counts, den=den)

    def test_types_build_no_fraction_per_pattern(self, monkeypatch):
        # the producers keep integer counts; the functional builds its one
        # returned value
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(oracle, "Fraction", counting)
        code = BinaryCode(n=6, words=(0b000111, 0b011001, 0b101010, 0b110100))
        types = [joint_type(code.words[:3], 6), avg_joint_type(code, 3),
                 bernoulli_mixture_type(code, 3)]
        assert built == []
        avg_radius_of_type(types[1], 1)
        assert len(built) == 1


class TestG1Dominance:
    def test_exact_sandwich_values_list3(self):
        # L = 3, W ~ Bino(3, 1/2): P[W > 2] = 1/8 < 5/16 < 1/2 = P[W >= 2]
        g1 = avg_radius_poly(3, 1, Fraction(1, 2))
        assert g1 == Fraction(5, 16)
        assert Fraction(1, 8) < g1 < Fraction(1, 2)


class TestRegionBlocks:
    @pytest.mark.parametrize("rows", [REGION_BLOCK_ROWS])
    def test_blocks_are_the_per_row_grids(self, rows):
        # row a1 of the scan is np.append(np.arange(step, top, step), top)
        step = REGION_STEP
        a1s = np.arange(step, 1.0 - 1e-6, step)
        assert len(a1s) % rows != 0  # a short last block
        ref = [np.append(np.arange(step, a1 * (1.0 - a1), step), a1 * (1.0 - a1)) for a1 in a1s]
        blocks = list(_region_blocks())
        assert len(blocks) == -(-len(a1s) // rows)
        a1 = np.concatenate([b[0] for b in blocks])
        a2 = np.concatenate([b[1] for b in blocks])
        assert np.array_equal(a1, np.repeat(a1s, [len(r) for r in ref]))
        assert np.array_equal(a2, np.concatenate(ref))
        assert len(a2) == 167_130
