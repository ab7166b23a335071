import json
import math

import pytest

import groundhold as gh

SCHEDULE_TEXT = """flight_id,airport,scheduled_arrival_slot,ground_cost
f1,ATL,1,1.5
f2,ATL,2,2.25
"""

CONNECTIONS_TEXT = """pred_id,succ_id,slack_slots
f1,f2,1
"""

CAPACITY_TEXT = """slot,airport,throughput
0,ATL,30
1,ATL,30
2,ATL,32
"""


class TestParseSchedule:
    def test_two_row_file(self):
        sched = gh.parse_schedule(SCHEDULE_TEXT, horizon=4, airborne_cost=5.0)
        assert len(sched.flights) == 2
        assert sched.flight_by_id["f2"].scheduled_arrival == 2
        assert sched.horizon.num_slots == 4
        assert sched.airborne_cost == 5.0

    def test_connections_from_companion_text(self):
        sched = gh.parse_schedule(SCHEDULE_TEXT, CONNECTIONS_TEXT, horizon=4, airborne_cost=5.0)
        assert sched.connections == (gh.ConnectionPair("f1", "f2", 1),)

    def test_negative_cost_reports_validation_error(self):
        text = "flight_id,airport,scheduled_arrival_slot,ground_cost\nf1,ATL,1,-2\n"
        with pytest.raises(gh.IngestError, match="negative-ground-cost"):
            gh.parse_schedule(text, horizon=4, airborne_cost=5.0)

    def test_missing_column_names_line(self):
        text = "flight_id,airport,scheduled_arrival_slot,ground_cost\nf1,ATL,1\n"
        with pytest.raises(gh.IngestError, match="line 2"):
            gh.parse_schedule(text, horizon=4, airborne_cost=5.0)

    def test_bad_slack_names_column_file(self):
        bad = "pred_id,succ_id,slack_slots\nf1,f2,\n"
        with pytest.raises(gh.IngestError, match="connections line 2"):
            gh.parse_schedule(SCHEDULE_TEXT, bad, horizon=4, airborne_cost=5.0)

    def test_wrong_header_rejected(self):
        with pytest.raises(gh.IngestError, match="expected header"):
            gh.parse_schedule("id,apt,slot,cost\nf1,ATL,1,1\n", horizon=4, airborne_cost=5.0)

    def test_roundtrip(self):
        sched = gh.parse_schedule(SCHEDULE_TEXT, CONNECTIONS_TEXT, horizon=4, airborne_cost=5.0)
        sched_text, conn_text = gh.serialize_schedule(sched)
        again = gh.parse_schedule(sched_text, conn_text, horizon=4, airborne_cost=5.0)
        assert again == sched


class TestCapacityHistory:
    def test_parse_and_roundtrip(self):
        records = gh.parse_capacity_history(CAPACITY_TEXT)
        assert len(records) == 3
        assert records[2] == gh.CapacityHistoryRecord("2", "ATL", 32)
        assert gh.parse_capacity_history(gh.serialize_capacity_history(records)) == records

    def test_negative_throughput_rejected(self):
        bad = "slot,airport,throughput\n0,ATL,-3\n"
        with pytest.raises(gh.IngestError, match="line 2"):
            gh.parse_capacity_history(bad)

    def test_empirical_distribution_counts(self):
        records = gh.parse_capacity_history(CAPACITY_TEXT)
        dist = gh.empirical_distribution(records, "ATL")
        assert dist.support_points == (30, 32)
        assert dist.probabilities == pytest.approx((2 / 3, 1 / 3))

    def test_empirical_single_record(self):
        dist = gh.empirical_distribution([gh.CapacityHistoryRecord("0", "X", 5)], "X")
        assert dist.support_points == (5,)
        assert dist.probabilities == (1.0,)

    def test_empirical_filters_airport(self):
        records = gh.parse_capacity_history(CAPACITY_TEXT) + [
            gh.CapacityHistoryRecord("0", "JFK", 99)]
        dist = gh.empirical_distribution(records, "ATL")
        assert 99 not in dist.support_points
        with pytest.raises(gh.IngestError, match="no capacity records"):
            gh.empirical_distribution(records, "LAX")

    def test_binning_arrival_times(self):
        records = gh.throughput_from_arrivals(
            ["08:00", "08:10", "08:14", "08:20", "08:50"], "ATL", slot_minutes=15)
        assert [(r.slot_label, r.throughput) for r in records] == [
            ("32", 3), ("33", 1), ("34", 0), ("35", 1)]

    def test_binning_rejects_bad_timestamp(self):
        with pytest.raises(gh.IngestError, match="8h05"):
            gh.throughput_from_arrivals(["8h05"], "ATL")


class TestSynthInstance:
    def test_same_seed_same_instance(self):
        params = gh.SynthParams()
        a = gh.synth_instance(params, seed=5)
        b = gh.synth_instance(params, seed=5)
        assert a == b
        assert a != gh.synth_instance(params, seed=6)

    def test_instances_validate(self):
        for seed in range(10):
            inst = gh.synth_instance(gh.SynthParams(num_flights=5, horizon=8), seed)
            assert gh.validate_schedule(inst.schedule) == []

    def test_zero_density_means_no_connections(self):
        inst = gh.synth_instance(gh.SynthParams(connection_density=0.0), seed=3)
        assert inst.schedule.connections == ()

    def test_zero_delay_feasible_under_max_capacity(self):
        # scheduled demand never exceeds the top support value by construction
        for seed in range(8):
            inst = gh.synth_instance(gh.SynthParams(num_flights=7, horizon=6), seed)
            for z, dist in inst.capacities.items():
                per_slot = [0] * (inst.schedule.horizon.num_slots + 1)
                for f in inst.schedule.flights:
                    if f.airport == z:
                        per_slot[f.scheduled_arrival] += 1
                assert max(per_slot) <= max(dist.support_points)

    def test_multi_airport_round_robin(self):
        inst = gh.synth_instance(gh.SynthParams(num_flights=6, num_airports=2), seed=1)
        assert set(inst.schedule.airports) == {"AP0", "AP1"}
        assert set(inst.capacities) == {"AP0", "AP1"}

    def test_history_reproduces_distribution(self):
        inst = gh.synth_instance(gh.SynthParams(), seed=12)
        for z, dist in inst.capacities.items():
            assert gh.empirical_distribution(inst.history[z], z) == dist

    def test_capacities_are_counted_from_the_history(self):
        inst = gh.synth_instance(gh.SynthParams(num_flights=6, num_airports=2), seed=3)
        history = {"AP0": inst.history["AP0"], "AP1": []}
        made = gh.Instance(inst.schedule, history)
        assert made.history is history
        assert made.capacities == {"AP0": inst.capacities["AP0"]}  # no records, no distribution
        with pytest.raises(TypeError):
            gh.Instance(inst.schedule, history, inst.capacities)

    @pytest.mark.parametrize("kwargs", [
        {"num_flights": 0},
        {"horizon": 0},
        {"ground_cost_range": (3.0, 1.0)},
        {"capacity_range": (2, 1)},
        {"capacity_range": (0, 0)},
        {"support_size": 9, "capacity_range": (1, 4)},
        {"connection_density": 1.5},
        {"num_flights": 100, "horizon": 2, "capacity_range": (1, 2)},
        {"ground_cost_range": (1.0, math.inf)},
        {"ground_cost_range": (math.nan, 5.0)},
    ])
    def test_parameter_bounds_enforced(self, kwargs):
        with pytest.raises(ValueError):
            gh.SynthParams(**kwargs)


class TestBundleIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        inst = gh.synth_instance(gh.SynthParams(num_flights=5, connection_density=0.5), seed=7)
        gh.write_instance(tmp_path / "inst", inst.schedule, inst.history)
        loaded = gh.load_instance(tmp_path / "inst")
        assert loaded.schedule == inst.schedule
        assert loaded.capacities == inst.capacities

    def test_missing_bundle_reports_io(self, tmp_path):
        with pytest.raises(gh.IngestError, match="cannot read"):
            gh.load_instance(tmp_path / "nope")

    def test_unknown_schema_rejected(self, tmp_path):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "params.json").write_text('{"schema": "other/9"}')
        (d / "schedule.csv").write_text(SCHEDULE_TEXT)
        with pytest.raises(gh.IngestError, match="schema"):
            gh.load_instance(d)

    @pytest.mark.parametrize("fields, message", [
        ({"airborne_cost": 5.0}, "params.json: missing 'num_slots'"),
        ({"num_slots": 4}, "params.json: missing 'airborne_cost'"),
        ({"num_slots": None, "airborne_cost": 5.0}, "params.json: num_slots None is not a number"),
        ({"num_slots": math.inf, "airborne_cost": 5.0}, "params.json: num_slots inf is not a number"),
        ({"num_slots": 4, "airborne_cost": None}, "params.json: airborne_cost None is not a number"),
        ({"num_slots": 4, "airborne_cost": [5]}, r"params.json: airborne_cost \[5\] is not a number"),
        ({"num_slots": 8.9, "airborne_cost": 5.0}, "params.json: num_slots 8.9 is not a whole number"),
        ({"num_slots": True, "airborne_cost": 5.0}, "params.json: num_slots True is not a whole number"),
    ], ids=["no-num-slots", "no-airborne-cost", "null-num-slots", "inf-num-slots",
            "null-airborne-cost", "list-airborne-cost", "fractional-num-slots", "bool-num-slots"])
    def test_malformed_params_rejected(self, tmp_path, fields, message):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "params.json").write_text(json.dumps({"schema": "ghp-instance/1", **fields}))
        (d / "schedule.csv").write_text(SCHEDULE_TEXT)
        with pytest.raises(gh.IngestError, match=message):
            gh.load_instance(d)

    @pytest.mark.parametrize("num_slots", [4, 4.0], ids=["int", "integral-float"])
    def test_whole_num_slots_accepted(self, tmp_path, num_slots):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "params.json").write_text(json.dumps(
            {"schema": "ghp-instance/1", "num_slots": num_slots, "airborne_cost": 5.0}))
        (d / "schedule.csv").write_text(SCHEDULE_TEXT)
        assert gh.load_instance(d).schedule.horizon.num_slots == 4

    def test_params_not_an_object_rejected(self, tmp_path):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "params.json").write_text('["ghp-instance/1", 4, 5.0]')
        (d / "schedule.csv").write_text(SCHEDULE_TEXT)
        with pytest.raises(gh.IngestError, match="params.json: expected a JSON object, got list"):
            gh.load_instance(d)
