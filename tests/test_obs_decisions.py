"""Decision-record explainability: sampling policy and audit fidelity.

The tentpole guarantee: with sampling ``all`` on a standard-suite
design, *every* deletion carries a decision record whose winning key
identifies exactly the edge that was deleted — the audit trail replays
against the deletion sequence ``test_edge_deletion_golden.py`` pins.
"""

import math

import pytest

from repro.bench.circuits import make_dataset, standard_suite
from repro.core import GlobalRouter, RouterConfig
from repro.core.selection import SelectionKey, SelectionMode, key_fields
from repro.obs import (
    DECISION_SAMPLING_DEFAULT,
    DecisionPolicy,
    MemorySink,
    TRACE_SCHEMA_VERSION,
)

DESIGN = "C1P1"
_SPECS = {spec.name: spec for spec in standard_suite()}


class TestDecisionPolicy:
    def test_default_is_every_nth(self):
        policy = DecisionPolicy.parse(None)
        assert policy.spec() == DECISION_SAMPLING_DEFAULT
        assert policy.enabled

    def test_all_wants_everything(self):
        policy = DecisionPolicy.parse("all")
        assert all(policy.wants(i) for i in range(50))

    def test_off_wants_nothing(self):
        for spelling in ("off", "none"):
            policy = DecisionPolicy.parse(spelling)
            assert not policy.enabled
            assert not any(policy.wants(i) for i in range(50))

    def test_nth_samples_every_n(self):
        policy = DecisionPolicy.parse("nth:3")
        wanted = [i for i in range(10) if policy.wants(i)]
        assert wanted == [0, 3, 6, 9]

    def test_parse_is_idempotent_on_policy_instances(self):
        policy = DecisionPolicy.parse("nth:7")
        assert DecisionPolicy.parse(policy) is policy

    @pytest.mark.parametrize(
        "bad", ["nth:0", "nth:-2", "nth:x", "sometimes", "nth:", ""]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            DecisionPolicy.parse(bad)


def _route(design, decision_sampling):
    dataset = make_dataset(_SPECS[design])
    sink = MemorySink()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        trace_sink=sink,
        decision_sampling=decision_sampling,
    )
    result = router.route()
    return sink, result, router


@pytest.fixture(scope="module")
def traced_all():
    """One standard-suite design routed with every decision recorded."""
    return _route(DESIGN, "all")


class TestDecisionRecords:
    def test_every_deletion_has_a_record(self, traced_all):
        sink, result, _ = traced_all
        deleted = sink.of_kind("edge_deleted")
        decisions = sink.of_kind("deletion_decision")
        assert len(deleted) == result.deletions > 0
        assert len(decisions) == len(deleted)
        assert [d.data["deletion_index"] for d in decisions] == list(
            range(result.deletions)
        )

    def test_winning_key_identifies_the_deleted_edge(self, traced_all):
        """The audit-trail invariant: record i's winner key carries the
        identity tie-break of exactly the edge deletion i removed."""
        sink, _, _ = traced_all
        deleted = sink.of_kind("edge_deleted")
        decisions = sink.of_kind("deletion_decision")
        for deletion, decision in zip(deleted, decisions):
            winner = decision.data["winner_key"]
            assert winner["net"] == deletion.data["net"] == decision.data["net"]
            assert winner["edge"] == deletion.data["edge"] == decision.data["edge"]

    def test_record_criterion_matches_edge_deleted(self, traced_all):
        sink, _, _ = traced_all
        deleted = sink.of_kind("edge_deleted")
        decisions = sink.of_kind("deletion_decision")
        for deletion, decision in zip(deleted, decisions):
            assert decision.data["criterion"] == deletion.data["criterion"]
            assert (
                decision.data["criterion_depth"] == deletion.data["depth"]
            )

    def test_runner_up_differs_at_the_deciding_condition(self, traced_all):
        sink, _, _ = traced_all
        for decision in sink.of_kind("deletion_decision"):
            runner = decision.data["runner_up"]
            criterion = decision.data["criterion"]
            if runner is None:
                assert criterion == "sole_candidate"
                continue
            if criterion in ("tie_break", "sole_candidate"):
                continue
            assert decision.data["winner_key"][criterion] != runner[criterion]

    def test_run_start_declares_schema_and_sampling(self, traced_all):
        sink, _, _ = traced_all
        start = sink.of_kind("run_start")[0]
        assert start.data["trace_schema"] == TRACE_SCHEMA_VERSION
        assert start.data["decision_sampling"] == "all"

    def test_density_snapshots_at_phase_boundaries(self, traced_all):
        sink, _, _ = traced_all
        labels = [
            e.data["label"] for e in sink.of_kind("density_snapshot")
        ]
        assert labels[0] == "initial"
        assert labels[-1] == "post_improvement"
        assert "post_deletion" in labels
        for event in sink.of_kind("density_snapshot"):
            channels = event.data["channels"]
            assert len(channels) >= 1
            for channel in channels:
                assert len(channel["d_max"]) == event.data["width_columns"]
                assert max(channel["d_max"]) == channel["c_max"]
                assert max(channel["d_min"]) == channel["c_min"]

    def test_margin_attribution_events_cover_all_constraints(
        self, traced_all
    ):
        sink, _, router = traced_all
        events = sink.of_kind("margin_attribution")
        names = {e.data["constraint"] for e in events}
        expected = {cg.name for cg in router.constraint_graphs}
        assert expected
        assert names == expected


class TestSampling:
    def test_nth_sampling_records_a_fraction(self):
        sink, result, _ = _route(DESIGN, "nth:5")
        decisions = sink.of_kind("deletion_decision")
        # The policy samples the pre-increment 0-based counter, so
        # deletions #0, #5, #10, ... carry records.
        assert len(decisions) == math.ceil(result.deletions / 5)
        assert len(sink.of_kind("edge_deleted")) == result.deletions

    def test_off_records_nothing_but_keeps_the_rest_of_the_trace(self):
        sink, result, _ = _route(DESIGN, "off")
        assert sink.of_kind("deletion_decision") == []
        assert len(sink.of_kind("edge_deleted")) == result.deletions
        assert sink.of_kind("density_snapshot")

    def test_sampling_does_not_change_routing(self):
        _, res_all, _ = _route(DESIGN, "all")
        _, res_off, _ = _route(DESIGN, "off")
        assert res_all.deletions == res_off.deletions
        assert res_all.total_length_um == res_off.total_length_um
        assert res_all.critical_delay_ps == res_off.critical_delay_ps


class TestKeyFields:
    def test_timing_key_round_trip(self):
        key: SelectionKey = (
            1, 2.0, -3.5, 0, 4, 5, 6, 7, -120.0, "n1", 9
        )
        fields = key_fields(key, SelectionMode.TIMING)
        assert fields["C_d"] == 1
        assert fields["Gl"] == 2.0
        assert fields["LD"] == -3.5
        assert fields["length"] == 120.0  # stored negated for max-first
        assert fields["net"] == "n1"
        assert fields["edge"] == 9

    def test_area_key_orders_density_conditions_first(self):
        key: SelectionKey = (
            1, 0, 4, 5, 6, 7, 2.0, -3.5, -120.0, "n1", 9
        )
        fields = key_fields(key, SelectionMode.AREA)
        names = list(fields)
        assert names.index("trunk") < names.index("Gl")
        assert fields["length"] == 120.0
