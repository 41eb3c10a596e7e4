import random
from fractions import Fraction

import pytest

import braidmono.arrangements as am
from braidmono import (
    ArrangementError,
    BlockFactor,
    Factorization,
    LineArrangement,
    StructuredFactor,
    braid_monodromy,
    canonical_key,
    degree_check,
    delta_word,
    exponent_sum,
    expand,
    is_delta2_factorization,
    permutation_of,
    product,
    singular_points,
    to_wiring_diagram,
)
from braidmono.arrangements import SingularPoint
from braidmono.garside import raw_of_word
from conftest import random_generic_arrangement


def arrangement(*pairs):
    return LineArrangement.from_pairs(pairs)


class TestSingularPoints:
    def test_two_crossing_lines(self):
        pts = singular_points(arrangement((1, 0), (-1, 0)))
        assert len(pts) == 1
        p = pts[0]
        assert (p.x, p.y) == (0, 0)
        assert p.multiplicity == 2 and p.block == (1, 2)

    def test_three_concurrent(self):
        pts = singular_points(arrangement((0, 0), (1, 0), (-1, 0)))
        assert len(pts) == 1
        assert pts[0].multiplicity == 3 and pts[0].block == (1, 3)

    def test_three_generic_exact_coordinates(self):
        # oracle: solve the three 2x2 systems by hand
        #  y=0, y=x        -> (0, 0)
        #  y=0, y=2x-1     -> (1/2, 0)
        #  y=x, y=2x-1     -> (1, 1)
        pts = singular_points(arrangement((0, 0), (1, 0), (2, -1)))
        assert [(p.x, p.y) for p in pts] == [
            (0, 0),
            (Fraction(1, 2), 0),
            (1, 1),
        ]
        assert [p.line_indices for p in pts] == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_lines_rejected(self):
        with pytest.raises(ArrangementError):
            arrangement((1, 0), (1, 0))

    def test_single_line_rejected(self):
        with pytest.raises(ArrangementError):
            singular_points(arrangement((1, 0)))


def fraction_singular_points(arr, order):
    """`singular_points` as it was computed in `Fraction`s: every pairwise
    crossing solved, grouped and sorted as (x, y) pairs of Fractions, then
    swept from the initial bottom-to-top `order`."""
    points = {}
    for i in range(arr.m):
        a1, b1 = arr.lines[i]
        for j in range(i + 1, arr.m):
            a2, b2 = arr.lines[j]
            if a1 == a2:
                continue
            x = Fraction(b2 - b1, a1 - a2)
            y = a1 * x + b1
            points.setdefault((x, y), set()).update((i, j))
    result = []
    for x, y in sorted(points):
        incident = points[(x, y)]
        positions = sorted(order.index(i) + 1 for i in incident)
        low, high = positions[0], positions[-1]
        if positions != list(range(low, high + 1)):
            raise ArrangementError(
                f"lines {sorted(incident)} do not occupy consecutive fiber "
                f"positions at x={x}; two same-x points overlap. "
                "Perturb one intercept by a small rational to separate them."
            )
        result.append(SingularPoint(x, y, tuple(sorted(incident)), (low, high), len(incident)))
        order[low - 1 : high] = reversed(order[low - 1 : high])
    return result


def geometry_inputs():
    rng = random.Random(19)
    arrs = [random_generic_arrangement(rng, m) for m in range(2, 13) for _ in range(2)]
    arrs.append(arrangement(*[(i, i * i) for i in range(1, 13)]))  # tangent family
    pencil = [(Fraction(s, 3), Fraction(-2 * s, 3) + Fraction(1, 2)) for s in range(-3, 3)]
    arrs.append(LineArrangement.from_pairs(pencil + [(Fraction(7, 2), 1), (-5, Fraction(-9, 4))]))
    arrs.append(arrangement((0, 0), (0, 1), (1, 0), (2, 5), (-1, 3), (2, -7)))  # parallels
    for _ in range(6):  # integer input, negative slopes and intercepts
        pairs = {(rng.randint(-9, 9), rng.randint(-40, 40)) for _ in range(rng.randint(2, 9))}
        if len(pairs) > 1:
            arrs.append(arrangement(*pairs))
    return arrs


class TestIntegerGeometry:
    """The crossings are solved, grouped and ordered in integers; the
    points, their Fraction coordinates and their blocks are those of the
    Fraction computation."""

    def test_points_match_the_fraction_computation(self):
        for arr in geometry_inputs():
            pts = singular_points(arr)
            assert pts == fraction_singular_points(arr, am._initial_order(arr))
            assert all(type(p.x) is Fraction and type(p.y) is Fraction for p in pts)


class TestWiringDiagram:
    def test_two_lines(self):
        wd = to_wiring_diagram(arrangement((1, 0), (-1, 0)))
        assert wd.initial_order == (0, 1)  # steepest first
        assert wd.events == ((1, 2),)

    def test_three_generic(self):
        wd = to_wiring_diagram(arrangement((0, 0), (1, 0), (2, -1)))
        assert wd.initial_order == (2, 1, 0)
        assert wd.events == ((2, 3), (1, 2), (2, 3))

    def test_concurrent_triple(self):
        wd = to_wiring_diagram(arrangement((0, 0), (1, 0), (-1, 0)))
        assert wd.events == ((1, 3),)

    def test_sweep_reverses_order(self, rng):
        # with distinct slopes every pair crosses once: the final fiber
        # order is the initial order reversed
        for _ in range(20):
            arr = random_generic_arrangement(rng, rng.randint(2, 6))
            wd = to_wiring_diagram(arr)
            order = list(wd.initial_order)
            for low, high in wd.events:
                order[low - 1 : high] = reversed(order[low - 1 : high])
            assert order == list(reversed(wd.initial_order))


class TestBraidMonodromy:
    def test_two_lines_single_node(self):
        F = braid_monodromy(arrangement((1, 0), (-1, 0)))
        assert len(F.factors) == 1
        assert words_equal_product_is_delta2(F)

    def test_three_concurrent_full_twist(self):
        F = braid_monodromy(arrangement((0, 0), (1, 0), (-1, 0)))
        assert len(F.factors) == 1
        assert isinstance(F.factors[0], BlockFactor)
        assert is_delta2_factorization(F)

    def test_three_generic(self):
        F = braid_monodromy(arrangement((0, 0), (1, 0), (2, -1)))
        assert len(F.factors) == 3
        assert all(f.degree() == 2 for f in F.factors)
        assert F.degree() == 6
        assert is_delta2_factorization(F)

    def test_master_oracle_random(self, rng):
        for _ in range(30):
            m = rng.randint(2, 6)
            arr = random_generic_arrangement(rng, m)
            F = braid_monodromy(arr)
            assert is_delta2_factorization(F)
            assert F.degree() == m * (m - 1)
            assert permutation_of(product(F)).is_identity()

    def test_factor_shape(self, rng):
        arr = random_generic_arrangement(rng, 5)
        for f in braid_monodromy(arr).factors:
            assert exponent_sum(expand(f)) == 2

    def test_block_factor_exponent_sums(self):
        # k concurrent lines plus extras: block factor degree k(k-1)
        for k in (3, 4, 5):
            pairs = [(Fraction(s), Fraction(0)) for s in range(1, k + 1)]
            pairs += [(Fraction(-1), Fraction(7)), (Fraction(-2), Fraction(-5, 2))]
            F = braid_monodromy(LineArrangement.from_pairs(pairs))
            blocks = [f for f in F.factors if isinstance(f, BlockFactor)]
            assert len(blocks) == 1
            assert blocks[0].degree() == k * (k - 1)
            assert is_delta2_factorization(F)

    def test_expand_blocks(self):
        arr = arrangement((0, 0), (1, 0), (-1, 0))
        F = braid_monodromy(arr, expand_blocks=True)
        assert len(F.factors) == 3
        assert all(isinstance(f, StructuredFactor) for f in F.factors)
        assert all(f.exponent == 2 for f in F.factors)
        assert is_delta2_factorization(F)

    def test_expansion_preserves_keys_elsewhere(self, rng):
        # expansion happens in place: products agree exactly
        pairs = [(Fraction(s), Fraction(0)) for s in (1, 2, 3)] + [
            (Fraction(-1), Fraction(5))
        ]
        arr = LineArrangement.from_pairs(pairs)
        from braidmono import product_nf

        assert product_nf(braid_monodromy(arr)) == product_nf(
            braid_monodromy(arr, expand_blocks=True)
        )

    def test_affine_invariance(self, rng):
        for _ in range(10):
            arr = random_generic_arrangement(rng, rng.randint(2, 5))
            base = canonical_key(braid_monodromy(arr))
            # translate x by c: y = a(x - c) + b
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            shifted = LineArrangement.from_pairs(
                [(a, b - a * c) for a, b in arr.lines]
            )
            assert canonical_key(braid_monodromy(shifted)) == base
            # scale x by positive lambda: slope a/lam
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = LineArrangement.from_pairs(
                [(a / lam, b) for a, b in arr.lines]
            )
            assert canonical_key(braid_monodromy(scaled)) == base


def words_equal_product_is_delta2(F: Factorization) -> bool:
    from braidmono import full_twist, words_equal

    return words_equal(product(F), full_twist(F.strands))


class TestDegreeCheck:
    def test_generic_no_deficit(self, rng):
        for m in range(2, 7):
            arr = random_generic_arrangement(rng, m)
            rep = degree_check(arr)
            assert rep.achieved == rep.target == m * (m - 1)
            assert rep.deficit == 0 and not rep.parallel_pairs

    def test_concurrent_triple_counts(self):
        rep = degree_check(arrangement((0, 0), (1, 0), (-1, 0)))
        assert rep.achieved == 6 == rep.target

    def test_parallel_deficit(self):
        rep = degree_check(arrangement((0, 0), (0, 1), (1, 0)))
        assert (rep.achieved, rep.target, rep.deficit) == (4, 6, 2)
        assert rep.parallel_pairs == ((0, 1),)
        F = braid_monodromy(arrangement((0, 0), (0, 1), (1, 0)))
        assert not is_delta2_factorization(F)

    def test_matches_the_sweep_sum(self, rng):
        """The closed-form report equals the sum of k(k-1) over the swept
        points, on random, pencil, tangent-family and parallel arrangements."""
        arrs = [random_generic_arrangement(rng, m) for m in range(2, 9)]
        arrs += [arrangement(*[(s, 3) for s in range(k)], (-1, 7)) for k in range(2, 7)]
        arrs += [arrangement(*[(i, i * i) for i in range(1, m + 1)]) for m in range(2, 13)]
        while len(arrs) < 40:
            m = rng.randint(2, 8)
            pairs = {(rng.randint(-2, 2), rng.randint(-9, 9)) for _ in range(m)}
            try:
                singular_points(arrangement(*pairs))
            except ArrangementError:
                continue
            arrs.append(arrangement(*pairs))
        assert sum(bool(a.parallel_pairs()) for a in arrs) > 10
        for arr in arrs:
            rep = degree_check(arr)
            swept = sum(p.multiplicity * (p.multiplicity - 1) for p in singular_points(arr))
            assert (rep.achieved, rep.target) == (swept, arr.m * (arr.m - 1))
            assert rep.deficit == rep.target - swept == 2 * len(rep.parallel_pairs)
            assert rep.parallel_pairs == arr.parallel_pairs()

    def test_one_line_is_an_error(self):
        with pytest.raises(ArrangementError, match="need at least 2 lines"):
            degree_check(arrangement((1, 0)))


class TestSameXPoints:
    def test_disjoint_blocks_accepted(self):
        # crossings (0,0) and (0,12) share x = 0 with disjoint fiber blocks
        arr = arrangement((1, 0), (-1, 0), (2, 12), (-2, 12))
        pts = singular_points(arr)
        same_x = [p for p in pts if p.x == 0]
        assert len(same_x) == 2
        assert {p.block for p in same_x} == {(1, 2), (3, 4)}
        assert is_delta2_factorization(braid_monodromy(arr))


class TestSweepConjugators:
    def test_conjugators_are_simple_and_spelled_by_blocks(self, rng):
        arrangements = [
            random_generic_arrangement(rng, m) for m in range(2, 12) for _ in range(2)
        ]
        pencil = [(Fraction(s), Fraction(0)) for s in range(1, 5)]
        pencil += [(Fraction(-1), Fraction(7)), (Fraction(-2), Fraction(-5, 2))]
        arrangements.append(LineArrangement.from_pairs(pencil))
        for arr in arrangements:
            m = arr.m
            events = to_wiring_diagram(arr).events
            fact = braid_monodromy(arr)
            assert len(fact.factors) == len(events)
            for idx, factor in enumerate(fact.factors):
                want = ()
                for q in range(len(events) - 1, idx, -1):
                    want += delta_word(m, *events[q]).letters
                assert factor.conjugator.letters == want
                delta_power, fids = raw_of_word(m, want)
                assert delta_power == 0 and len(fids) <= 1
