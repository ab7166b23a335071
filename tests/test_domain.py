import math

import pytest
from hypothesis import given, strategies as st

import groundhold as gh
from helpers import two_flight_schedule


class TestTimeHorizon:
    def test_slots(self):
        assert list(gh.TimeHorizon(3).slots()) == [1, 2, 3]

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3"])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            gh.TimeHorizon(bad)


class TestValidateSchedule:
    def test_valid_schedule_has_no_violations(self):
        assert gh.validate_schedule(two_flight_schedule()) == []

    def test_slot_zero_out_of_range(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3), (gh.Flight("f1", "A", 0, 1.0),), (), 2.0)
        codes = [v.code for v in gh.validate_schedule(sched)]
        assert codes == ["slot-out-of-range"]

    def test_dangling_connection(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(3),
            (gh.Flight("f1", "A", 1, 1.0),),
            (gh.ConnectionPair("f1", "ghost", 0),),
            2.0,
        )
        codes = [v.code for v in gh.validate_schedule(sched)]
        assert codes == ["dangling-connection"]

    def test_collects_every_violation(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(2),
            (gh.Flight("f1", "A", 1, -1.0), gh.Flight("f1", "A", 9, 1.0)),
            (gh.ConnectionPair("f1", "f1", -2),),
            -0.5,
        )
        codes = {v.code for v in gh.validate_schedule(sched)}
        assert codes == {
            "negative-ground-cost", "duplicate-flight-id", "slot-out-of-range",
            "self-connection", "negative-slack", "negative-airborne-cost",
        }

    def test_total_on_junk_fields(self):
        # validation never raises, whatever was stuffed into the fields
        sched = gh.FlightSchedule(
            gh.TimeHorizon(2), (gh.Flight("f1", "A", "soon", "cheap"),), (), "n/a")
        codes = {v.code for v in gh.validate_schedule(sched)}
        assert "slot-out-of-range" in codes
        assert "negative-ground-cost" in codes

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_costs(self, cost):
        ground = gh.FlightSchedule(gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, cost),), (), 2.0)
        airborne = gh.FlightSchedule(gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, 1.0),), (), cost)
        assert [v.code for v in gh.validate_schedule(ground)] == ["non-finite-ground-cost"]
        assert [v.code for v in gh.validate_schedule(airborne)] == ["non-finite-airborne-cost"]

    def test_cost_beyond_float_range(self):
        # float(10**400) raises OverflowError; validation still only reports
        sched = gh.FlightSchedule(gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, 10**400),), (), 2.0)
        assert [v.code for v in gh.validate_schedule(sched)] == ["non-finite-ground-cost"]


class TestCapacityDistribution:
    def test_sorts_support(self):
        dist = gh.CapacityDistribution((4, 1), (0.25, 0.75))
        assert dist.support_points == (1, 4)
        assert dist.probabilities == (0.75, 0.25)
        assert dist.mean() == pytest.approx(1.75)

    def test_mean_is_correctly_rounded(self):
        # the counts 3/6/1 of a capacity.csv; adding 0.3 + 1.8 + 0.4 left to
        # right gives 2.4999999999999996, a compensated sum 2.5
        assert gh.CapacityDistribution((1, 3, 4), (0.3, 0.6, 0.1)).mean() == 2.5

    @pytest.mark.parametrize("support,probs", [
        ((1, 2), (0.5,)),            # length mismatch
        ((), ()),                    # empty
        ((1, 1), (0.5, 0.5)),        # duplicate support
        ((-1,), (1.0,)),             # negative capacity
        ((1, 2), (0.0, 1.0)),        # zero probability
        ((1, 2), (0.6, 0.6)),        # does not sum to one
    ])
    def test_rejects_invalid(self, support, probs):
        with pytest.raises(ValueError):
            gh.CapacityDistribution(support, probs)


class TestSupportGrid:
    def test_contains(self):
        grid = gh.SupportGrid((1, 3, 5))
        assert 3 in grid and 2 not in grid
        assert len(grid) == 3

    @pytest.mark.parametrize("values", [(), (2, 1), (1, 1), (-1, 0)])
    def test_rejects_invalid(self, values):
        with pytest.raises(ValueError):
            gh.SupportGrid(values)


class TestAmbiguitySpec:
    def test_requires_support_inside_grid(self):
        dist = gh.CapacityDistribution((2, 5), (0.5, 0.5))
        with pytest.raises(ValueError, match="not contained"):
            gh.AmbiguitySpec(dist, 0.1, gh.SupportGrid((2, 3, 4)))

    def test_rejects_negative_radius(self):
        dist = gh.CapacityDistribution((2,), (1.0,))
        with pytest.raises(ValueError):
            gh.AmbiguitySpec(dist, -0.1, gh.SupportGrid((2,)))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, radius):
        dist = gh.CapacityDistribution((2,), (1.0,))
        with pytest.raises(ValueError, match=f"radius must be a finite number, got {radius}"):
            gh.AmbiguitySpec(dist, radius, gh.SupportGrid((2,)))

    @given(st.sets(st.integers(0, 30), min_size=1, max_size=5))
    def test_default_grid_always_admissible(self, support):
        support = tuple(sorted(support))
        probs = tuple(1.0 / len(support) for _ in support)
        dist = gh.CapacityDistribution(support, probs)
        amb = gh.AmbiguitySpec(dist, 0.5, gh.default_support_grid(dist))
        assert set(dist.support_points) <= set(amb.grid.values)


class TestDefaultSupportGrid:
    @pytest.mark.parametrize("support,expected", [
        ((28, 32), (28, 29, 30, 31, 32)),
        ((5,), (5,)),
        ((0, 3), (0, 1, 2, 3)),
    ])
    def test_unit_step_span(self, support, expected):
        probs = tuple(1.0 / len(support) for _ in support)
        grid = gh.default_support_grid(gh.CapacityDistribution(support, probs))
        assert grid.values == expected


class TestNetworkInstance:
    def test_requires_known_airports(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(2), (gh.Flight("f1", "B", 1, 1.0),), (), 2.0)
        amb = gh.AmbiguitySpec(
            gh.CapacityDistribution((1,), (1.0,)), 0.0, gh.SupportGrid((1,)))
        with pytest.raises(ValueError, match="unknown airport"):
            gh.NetworkInstance(("A",), sched, {"A": amb})

    def test_requires_ambiguity_per_airport(self):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, 1.0),), (), 2.0)
        with pytest.raises(ValueError, match="no ambiguity"):
            gh.NetworkInstance(("A",), sched, {})
