"""Tests for repro.obs.alerts — rule parsing, the firing life-cycle
state machine, determinism, and the non-perturbation contract."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache
from repro.obs import (
    AlertEngine,
    AlertRule,
    AlertTransition,
    DEFAULT_RULES,
    MetricsRegistry,
    SloTracker,
    load_rules,
    parse_rule,
    read_transitions,
    write_transitions,
)
from repro.packages.repository import PackageIndex

GOLDEN = Path(__file__).parent / "data" / "alert_transitions_golden.jsonl"


class TestAlertRule:
    def test_expr_round_trips_through_parse(self):
        rule = AlertRule("storm", "eviction_rate", ">", 0.5, 25)
        assert rule.expr == "eviction_rate > 0.5"
        assert parse_rule({"name": "storm", "expr": rule.expr,
                           "for": 25}) == rule

    def test_breaches_each_operator(self):
        cases = [("<", 0.4, True), ("<=", 0.5, True), (">", 0.6, True),
                 (">=", 0.5, True), ("==", 0.5, True), ("!=", 0.4, True),
                 ("<", 0.6, False), (">", 0.4, False)]
        for op, value, expected in cases:
            rule = AlertRule("r", "s", op, 0.5)
            assert rule.breaches({"s": value}) is expected, (op, value)

    def test_nan_and_missing_never_breach(self):
        rule = AlertRule("r", "s", "<", 0.5)
        assert not rule.breaches({"s": float("nan")})
        assert not rule.breaches({})

    def test_bad_operator_and_negative_for_rejected(self):
        with pytest.raises(ValueError):
            AlertRule("r", "s", "~", 0.5)
        with pytest.raises(ValueError):
            AlertRule("r", "s", "<", 0.5, for_requests=-1)


class TestParseAndLoad:
    def test_bare_string_rule(self):
        rule = parse_rule("cache_efficiency < 0.5")
        assert rule.series == "cache_efficiency"
        assert rule.name == "cache_efficiency-<-0.5"
        assert rule.for_requests == 0

    def test_missing_expr_and_garbage_expr_rejected(self):
        with pytest.raises(ValueError, match="no 'expr'"):
            parse_rule({"name": "x"}, index=3)
        with pytest.raises(ValueError, match="unparseable"):
            parse_rule("eviction_rate >>> 1")

    def test_load_list_and_wrapped_forms(self, tmp_path):
        entries = [
            {"name": "storm", "expr": "eviction_rate > 0.5", "for": 25},
            "hit_rate < 0.1",
        ]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(entries))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"rules": entries}))
        assert load_rules(flat) == load_rules(wrapped)
        assert [r.name for r in load_rules(flat)] == [
            "storm", "hit_rate-<-0.1",
        ]

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps([
            {"name": "x", "expr": "hit_rate < 0.5"},
            {"name": "x", "expr": "merge_rate > 0.5"},
        ]))
        with pytest.raises(ValueError, match="duplicate"):
            load_rules(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="expected a JSON list"):
            load_rules(path)

    def test_default_rules_reference_real_series(self):
        from repro.obs import SLO_SERIES

        for rule in DEFAULT_RULES:
            assert rule.series in SLO_SERIES


def run_engine(engine, series, values):
    """Drive one series through an engine; returns all transitions."""
    out = []
    for i, value in enumerate(values):
        out.extend(engine.evaluate({series: value}, i))
    return out


class TestLifeCycle:
    def test_for_zero_fires_immediately(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5)])
        transitions = run_engine(engine, "s", [0.9])
        assert [(t.state, t.request_index) for t in transitions] == [
            ("firing", 0),
        ]
        assert engine.state_of("r") == "firing"
        assert engine.firing() == ["r"]
        assert engine.exit_code == 1

    def test_for_n_requires_consecutive_breaches(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5, for_requests=3)])
        transitions = run_engine(engine, "s", [0.9, 0.9, 0.9])
        assert [t.state for t in transitions] == ["pending", "firing"]
        assert transitions[0].request_index == 0
        assert transitions[1].request_index == 2

    def test_interrupted_breach_resets_pending_quietly(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5, for_requests=3)])
        transitions = run_engine(engine, "s", [0.9, 0.9, 0.1, 0.9, 0.9])
        # reset at index 2 emits nothing; the clock restarts at 3
        assert [t.state for t in transitions] == ["pending", "pending"]
        assert engine.state_of("r") == "pending"
        assert engine.exit_code == 0

    def test_firing_resolves_when_condition_clears(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5, for_requests=2)])
        transitions = run_engine(engine, "s", [0.9, 0.9, 0.9, 0.1])
        assert [t.state for t in transitions] == [
            "pending", "firing", "resolved",
        ]
        assert engine.state_of("r") == "inactive"
        assert engine.firing() == []
        # the CI gate remembers that it fired
        assert engine.exit_code == 1

    def test_nan_gap_resolves_a_firing_alert(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5)])
        transitions = run_engine(engine, "s", [0.9, float("nan")])
        assert [t.state for t in transitions] == ["firing", "resolved"]

    def test_rules_evaluated_independently(self):
        engine = AlertEngine([
            AlertRule("a", "x", ">", 0.5),
            AlertRule("b", "y", "<", 0.5, for_requests=2),
        ])
        engine.evaluate({"x": 0.9, "y": 0.1}, 0)
        engine.evaluate({"x": 0.9, "y": 0.1}, 1)
        assert engine.state_of("a") == "firing"
        assert engine.state_of("b") == "firing"
        assert engine.firing() == ["a", "b"]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine([
                AlertRule("x", "s", ">", 0.5),
                AlertRule("x", "s", "<", 0.5),
            ])

    def test_summary_shape(self):
        engine = AlertEngine()
        rows = engine.summary()
        assert [row["name"] for row in rows] == [
            r.name for r in DEFAULT_RULES
        ]
        assert all(row["state"] == "inactive" for row in rows)
        assert all("expr" in row and "for" in row for row in rows)


class TestMetricsExport:
    def test_state_gauge_and_transition_counters(self):
        reg = MetricsRegistry()
        engine = AlertEngine(
            [AlertRule("r", "s", ">", 0.5, for_requests=2)], registry=reg
        )
        gauge = reg.get("alert_state")
        assert gauge.value(alert="r") == 0
        run_engine(engine, "s", [0.9, 0.9])
        assert gauge.value(alert="r") == 1
        run_engine(engine, "s", [0.1])
        assert gauge.value(alert="r") == 0
        counter = reg.get("alert_transitions_total")
        assert counter.value(alert="r", state="pending") == 1
        assert counter.value(alert="r", state="firing") == 1
        assert counter.value(alert="r", state="resolved") == 1


class TestTransitionsIO:
    def make_transitions(self):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5, for_requests=2)])
        return run_engine(engine, "s", [0.9, 0.9, 0.1])

    def test_round_trip(self, tmp_path):
        transitions = self.make_transitions()
        path = write_transitions(transitions, tmp_path / "t.jsonl")
        assert read_transitions(path) == transitions

    def test_append_mode(self, tmp_path):
        transitions = self.make_transitions()
        path = tmp_path / "t.jsonl"
        write_transitions(transitions[:1], path)
        write_transitions(transitions[1:], path, append=True)
        assert read_transitions(path) == transitions

    def test_jsonable_round_trip(self):
        t = AlertTransition("r", "firing", 42, 0.75)
        assert AlertTransition.from_jsonable(t.to_jsonable()) == t


def golden_scenario():
    """The deterministic cache run behind the golden transitions file:
    a tiny cache whose eviction storm trips a for-3 rule, then calms
    down (hits on a resident image) so the alert resolves."""
    size_of = PackageIndex.of({f"p{i}": 40 for i in range(10)})
    cache = LandlordCache(100, 0.0, size_of)  # alpha 0: never merge
    slo = SloTracker(window=4)
    cache.enable_slo(slo)
    engine = AlertEngine(
        [AlertRule("eviction-storm", "eviction_rate", ">", 0.5,
                   for_requests=3)]
    )
    # 6 distinct 2-package inserts: each evicts to fit under 100 bytes,
    # holding the windowed eviction rate above 0.5 — pending then firing.
    for i in range(6):
        cache.request(frozenset({f"p{i}", f"p{(i + 1) % 10}"}))
        engine.evaluate(slo.values(), cache.stats.requests - 1)
    # 8 hits on the resident image: evictions leave the window, resolved.
    for _ in range(8):
        cache.request(frozenset({"p5", "p6"}))
        engine.evaluate(slo.values(), cache.stats.requests - 1)
    return engine


class TestGoldenLifeCycle:
    def test_scenario_walks_the_full_life_cycle(self):
        engine = golden_scenario()
        states = [t.state for t in engine.transitions]
        assert states == ["pending", "firing", "resolved"]
        assert engine.exit_code == 1
        assert engine.state_of("eviction-storm") == "inactive"

    def test_transitions_match_golden_file(self):
        engine = golden_scenario()
        got = [
            json.dumps(t.to_jsonable(), sort_keys=True)
            for t in engine.transitions
        ]
        assert "\n".join(got) + "\n" == GOLDEN.read_text()

    def test_golden_file_reads_back(self):
        transitions = read_transitions(GOLDEN)
        assert [t.state for t in transitions] == [
            "pending", "firing", "resolved",
        ]


@st.composite
def value_streams(draw):
    """Sequences of series values including nan and missing entries."""
    n = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.just(float("nan")),
    )
    return [
        draw(st.fixed_dictionaries({}, optional={"s": value}))
        for _ in range(n)
    ]


class TestDeterminism:
    """Alert evaluation is a pure state machine over its inputs."""

    @given(
        stream=value_streams(),
        threshold=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        op=st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        for_requests=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_inputs_same_transitions(
        self, stream, threshold, op, for_requests
    ):
        def run():
            engine = AlertEngine(
                [AlertRule("r", "s", op, threshold, for_requests)]
            )
            for i, values in enumerate(stream):
                engine.evaluate(values, i)
            return engine

        def keys(engine):
            # nan-safe comparison: a resolved transition recorded when
            # the series went missing carries value=nan, and nan != nan
            # under dataclass equality even for identical sequences.
            return [
                json.dumps(t.to_jsonable(), sort_keys=True)
                for t in engine.transitions
            ]

        a, b = run(), run()
        assert keys(a) == keys(b)
        assert a.fired_ever == b.fired_ever
        assert a.state_of("r") == b.state_of("r")

    @given(stream=value_streams())
    @settings(max_examples=40, deadline=None)
    def test_life_cycle_invariants(self, stream):
        engine = AlertEngine([AlertRule("r", "s", ">", 0.5, 2)])
        for i, values in enumerate(stream):
            engine.evaluate(values, i)
        states = [t.state for t in engine.transitions]
        # resolved only ever follows firing; firing follows pending
        # (for >= 2 means a pending transition always precedes it)
        for prev, cur in zip([None] + states, states + [None]):
            if cur == "resolved":
                assert prev == "firing"
            if cur == "firing":
                assert prev == "pending"
        assert engine.fired_ever == ("firing" in states)


def decision_key(decision):
    return (
        decision.action.value,
        decision.image.id,
        decision.image.size,
        decision.requested_bytes,
        decision.distance,
        decision.bytes_added,
        tuple(decision.evicted),
    )


@st.composite
def request_streams(draw):
    n_packages = draw(st.integers(min_value=4, max_value=12))
    n_requests = draw(st.integers(min_value=1, max_value=25))
    return [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_packages - 1),
                    min_size=1, max_size=n_packages,
                ).map(lambda ids: {f"p{i}" for i in ids})
            )
        )
        for _ in range(n_requests)
    ]


class TestNonPerturbation:
    """SLO tracking + alert evaluation must never change a decision."""

    @given(
        stream=request_streams(),
        alpha=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
        capacity=st.sampled_from([40, 100, 10_000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_alerted_run_is_bit_identical_to_bare_run(
        self, stream, alpha, capacity
    ):
        size_of = PackageIndex.of({f"p{i}": 10 * (i + 1) for i in range(12)})

        bare = LandlordCache(capacity, alpha, size_of)
        watched = LandlordCache(capacity, alpha, size_of)
        slo = SloTracker(window=7)
        watched.enable_slo(slo)
        engine = AlertEngine([
            AlertRule("storm", "eviction_rate", ">", 0.2, 2),
            AlertRule("slump", "hit_rate", "<", 0.6, 3),
        ])

        bare_decisions = [decision_key(bare.request(s)) for s in stream]
        watched_decisions = []
        for i, s in enumerate(stream):
            watched_decisions.append(decision_key(watched.request(s)))
            engine.evaluate(slo.values(), i)
        assert bare_decisions == watched_decisions
        assert bare.stats == watched.stats
        assert bare.evict_idle(max_idle_requests=1) == (
            watched.evict_idle(max_idle_requests=1)
        )

    def test_simulator_slo_collection_does_not_perturb(self):
        from repro.htc.simulator import SimulationConfig, simulate
        from repro.util.units import GB

        config = SimulationConfig(
            capacity=20 * GB, n_unique=20, repeats=2, n_packages=200,
            repo_total_size=8 * GB, seed=9,
        )
        bare = simulate(config)
        with_slo = simulate(config.with_(collect_slo=True))
        assert bare.stats == with_slo.stats
        assert with_slo.slo_window is not None
        assert not math.isnan(with_slo.slo_window["hit_rate"])
        assert bare.slo_window is None
