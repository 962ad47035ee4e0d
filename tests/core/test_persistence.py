"""Tests for cache snapshot/restore and the on-disk state layer."""

import json
from pathlib import Path

import pytest

from repro.core.cache import LandlordCache, mask_of_text, mask_text
from repro.core.events import EventKind
from repro.core.journal import JournaledState, recover_state
from repro.core.persistence import (
    StateError,
    StateNotFound,
    body_checksum,
    load_bundle,
    load_state,
    save_state,
)
from repro.packages.repository import PackageIndex
from tests.core.test_mask_matrix import v3_record

SIZE = {f"p{i}": 10 for i in range(30)}
SIZE_OF = PackageIndex.of(SIZE)


def make_cache(capacity=500, **kw):
    return LandlordCache(capacity, 0.8, SIZE_OF, **kw)


def warm_cache():
    cache = make_cache()
    cache.request(frozenset({"p0", "p1", "p2"}))
    cache.request(frozenset({"p0", "p1", "p3"}))  # merge
    cache.request(frozenset({"p9", "p10"}))
    cache.request(frozenset({"p9", "p10"}))       # hit
    return cache


class TestSnapshotRestore:
    def test_roundtrip_preserves_everything(self):
        original = warm_cache()
        snapshot = original.snapshot()
        restored = make_cache()
        restored.restore(snapshot)
        assert len(restored) == len(original)
        assert restored.cached_bytes == original.cached_bytes
        assert restored.unique_bytes == original.unique_bytes
        assert restored.stats == original.stats
        assert {i.id for i in restored.images} == {
            i.id for i in original.images
        }
        assert restored.snapshot() == snapshot

    def test_restored_cache_behaves_identically(self):
        original = warm_cache()
        restored = make_cache()
        restored.restore(original.snapshot())
        probe = frozenset({"p0", "p1"})
        a = original.request(probe)
        b = restored.request(probe)
        assert a.action == b.action == EventKind.HIT
        assert a.image.id == b.image.id

    def test_lru_order_survives(self):
        cache = LandlordCache(60, 0.0, SIZE_OF)
        cache.request(frozenset({"p0", "p1"}))
        cache.request(frozenset({"p2", "p3"}))
        cache.request(frozenset({"p0", "p1"}))  # touch first
        restored = LandlordCache(60, 0.0, SIZE_OF)
        restored.restore(cache.snapshot())
        restored.request(frozenset({"p4", "p5"}))  # evicts true LRU
        assert restored.request(frozenset({"p0", "p1"})).action is EventKind.HIT

    def test_image_id_sequence_continues(self):
        original = warm_cache()
        restored = make_cache()
        restored.restore(original.snapshot())
        decision = restored.request(frozenset({"p20"}))
        existing = {i.id for i in original.images}
        assert decision.image.id not in existing

    def test_restore_requires_fresh_cache(self):
        cache = warm_cache()
        with pytest.raises(ValueError, match="fresh"):
            cache.restore(cache.snapshot())

    def test_restore_rejects_config_mismatch(self):
        snapshot = warm_cache().snapshot()
        other = LandlordCache(999, 0.8, SIZE_OF)
        with pytest.raises(ValueError, match="capacity"):
            other.restore(snapshot)

    def test_restore_rejects_policy_mismatch(self):
        snapshot = warm_cache().snapshot()
        other = make_cache(eviction="fifo", hit_selection="mru")
        with pytest.raises(ValueError, match="policy mismatch") as exc:
            other.restore(snapshot)
        assert "eviction" in str(exc.value)
        assert "hit_selection" in str(exc.value)

    def test_restore_rejects_conflict_policy_mismatch(self):
        from repro.packages.conflicts import SlotConflicts

        snapshot = warm_cache().snapshot()
        other = make_cache(conflict_policy=SlotConflicts())
        with pytest.raises(ValueError, match="conflict_policy"):
            other.restore(snapshot)

    def test_restore_rejects_policyless_snapshot(self):
        snapshot = warm_cache().snapshot()
        del snapshot["policy"]
        with pytest.raises(ValueError, match="pre-v2"):
            make_cache().restore(snapshot)

    def test_snapshot_records_all_policy_knobs(self):
        policy = warm_cache().snapshot()["policy"]
        assert policy == {
            "eviction": "lru",
            "hit_selection": "smallest",
            "candidate_order": "distance",
            "merge_write_mode": "full",
            "conflict_policy": "NoConflicts",
        }

    def test_random_candidate_order_rng_state_survives(self):
        import numpy as np

        a = LandlordCache(10**9, 1.0, SIZE_OF,
                          candidate_order="random",
                          rng=np.random.default_rng(5))
        b = LandlordCache(10**9, 1.0, SIZE_OF,
                          candidate_order="random",
                          rng=np.random.default_rng(5))
        stream = [frozenset({f"p{i}", f"p{i + 1}"}) for i in range(10)]
        for spec in stream:
            a.request(spec)
            b.request(spec)
        restored = LandlordCache(10**9, 1.0, SIZE_OF,
                                 candidate_order="random",
                                 rng=np.random.default_rng(999))
        restored.restore(a.snapshot())
        probe = [frozenset({f"p{i}", f"p{i + 5}"}) for i in range(8)]
        for spec in probe:
            da = b.request(spec)
            dr = restored.request(spec)
            assert (da.action, da.image.id) == (dr.action, dr.image.id)


class TestStateFiles:
    def test_save_load_roundtrip(self, tmp_path):
        cache = warm_cache()
        path = save_state(tmp_path / "state.json", cache,
                          metadata={"site": "s0"})
        loaded, metadata = load_state(path, SIZE_OF)
        assert metadata == {"site": "s0"}
        assert loaded.stats == cache.stats

    def test_missing_file(self, tmp_path):
        with pytest.raises(StateError, match="no state file"):
            load_state(tmp_path / "ghost.json", SIZE_OF)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(StateError, match="corrupt"):
            load_state(path, SIZE_OF)

    def test_wrong_version(self, tmp_path):
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StateError, match="version"):
            load_state(path, SIZE_OF)

    def test_v1_file_fails_descriptively(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(
            {"version": 1, "cache": warm_cache().snapshot()}
        ))
        with pytest.raises(
            StateError, match="v1 state.*commit bf23e3f and re-save"
        ):
            load_state(path, SIZE_OF)

    def test_malformed_cache_section(self, tmp_path):
        body = {"metadata": {}, "journal_seq": 0, "cache": {}}
        payload = {"version": 2, "checksum": body_checksum(body), **body}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(StateError, match="malformed"):
            load_state(path, SIZE_OF)

    def test_checksum_mismatch_detected(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache())
        payload = json.loads(path.read_text())
        payload["journal_seq"] = 42  # tamper after checksumming
        path.write_text(json.dumps(payload))
        with pytest.raises(StateError, match="checksum"):
            load_state(path, SIZE_OF)

    def test_missing_checksum_detected(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache())
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StateError, match="checksum"):
            load_state(path, SIZE_OF)

    def test_policy_mismatch_on_load(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache())
        with pytest.raises(StateError, match="policy mismatch"):
            load_state(path, SIZE_OF, eviction="fifo")

    def test_missing_file_is_statenotfound(self, tmp_path):
        with pytest.raises(StateNotFound):
            load_state(tmp_path / "ghost.json", SIZE_OF)

    def test_load_bundle_reports_journal_seq(self, tmp_path):
        path = save_state(
            tmp_path / "s.json", warm_cache(), journal_seq=17
        )
        bundle = load_bundle(path, SIZE_OF)
        assert bundle.journal_seq == 17

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        save_state(tmp_path / "s.json", warm_cache())
        assert list(tmp_path.iterdir()) == [tmp_path / "s.json"]

    def test_stale_tmp_removed_on_load(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache())
        stale = tmp_path / "s.json.tmp"
        stale.write_text("{half-written")
        loaded, _ = load_state(path, SIZE_OF)
        assert loaded.stats.requests == 4
        assert not stale.exists()

    def test_stale_tmp_without_state_reports_crash(self, tmp_path):
        stale = tmp_path / "s.json.tmp"
        stale.write_text("{half-written")
        with pytest.raises(StateNotFound, match="tmp"):
            load_state(tmp_path / "s.json", SIZE_OF)
        assert not stale.exists()


FIXTURES = Path(__file__).parent / "fixtures"
# What state files recorded while the cache had a MinHash/LSH merge
# prefilter; every one the CLI or daemon wrote has it switched off.
RETIRED_KNOBS = ("use_minhash", "minhash_perm", "minhash_bands", "minhash_seed")
OFF = {"use_minhash": False, "minhash_perm": 128, "minhash_bands": 32,
       "minhash_seed": 1}


def two_image_cache():
    cache = make_cache(capacity=60)
    cache.request(frozenset({"p0", "p1", "p2"}))
    cache.request(frozenset({"p9", "p10"}))
    return cache


def edited_file(tmp_path, edit, record):
    """A state file of ``record`` (a cache section) that ``edit``
    changed, re-checksummed: only the section, not the checksum, is
    wrong with it.  A record with a name table is written as v3."""
    edit(record)
    body = {"metadata": {}, "journal_seq": 0, "cache": record}
    version = 3 if "universe" in record else 4
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"version": version, "checksum": body_checksum(body), **body}))
    return path


def edited_v3_file(tmp_path, edit):
    """A v3 file — masks over a name table — of a two-image cache."""
    return edited_file(tmp_path, edit, v3_record(two_image_cache()))


def edited_v4_file(tmp_path, edit):
    """A v4 file — masks over the repository — of a two-image cache."""
    return edited_file(tmp_path, edit, two_image_cache().mask_snapshot())


class TestStateVersions:
    """v4 is what is written; v2 and v3 are still read; anything else is
    refused by name."""

    def test_written_file_is_v4(self, tmp_path):
        from repro.core.persistence import STATE_VERSION

        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache)
        payload = json.loads(path.read_text())
        assert payload["version"] == STATE_VERSION == 4
        stored = payload["cache"]
        assert "universe" not in stored
        assert stored["repository"] == SIZE_OF.digest
        assert all("packages" not in image for image in stored["images"])
        assert [mask_of_text(image["mask"]) for image in stored["images"]] \
            == [image.mask for image in cache.images]

    def test_dead_names_are_not_written(self, tmp_path):
        cache = make_cache(capacity=60)
        cache.request(frozenset({"p0", "p1", "p2", "p3"}))
        cache.request(frozenset({"p9", "p10", "p11"}))  # evicts the first
        path = save_state(tmp_path / "s.json", cache)
        stored = json.loads(path.read_text())["cache"]
        assert [image["mask"] for image in stored["images"]] == [
            mask_text(1 << 9 | 1 << 10 | 1 << 11)]
        assert mask_text(1 << 9 | 1 << 10 | 1 << 11) == "AA4="
        loaded, _ = load_state(path, SIZE_OF)
        assert loaded.snapshot() == cache.snapshot()

    def test_masks_are_written_over_the_shared_numbering(self, tmp_path):
        """A state file's masks and a journal entry's index the same
        numbering, so an entry after any state file reads as written."""
        ids = sorted(SIZE)
        index = PackageIndex(ids, [SIZE[pid] for pid in ids])
        cache = LandlordCache(95, 0.8, index)
        cache.request(frozenset({"p0", "p1"}))
        cache.request(frozenset({"p29", "p3", "p12"}))
        cache.request(frozenset({"p28", "p4", "p11", "p13", "p2"}))
        assert "p0" not in set().union(*(i.packages for i in cache.images))
        path = save_state(tmp_path / "s.json", cache)
        stored = json.loads(path.read_text())["cache"]
        for record, image in zip(stored["images"], cache.images):
            mask = mask_of_text(record["mask"])
            assert {ids[at] for at in range(mask.bit_length())
                    if mask >> at & 1} == image.packages
        loaded, _ = load_state(path, index)
        assert loaded.snapshot() == cache.snapshot()
        # An entry sets the bits of its names, live or dead, in the
        # index's order.
        store = JournaledState(tmp_path / "j.json", snapshot_every=10 ** 9)
        store.initialise(cache, {})
        store.apply(cache, {}, "request", packages=["p0", "p3"])
        store.journal.close()
        data = store.journal.entries()[0].data
        assert data == {"mask": mask_text(
            1 << ids.index("p0") | 1 << ids.index("p3"))}
        recovered, _, replayed = recover_state(
            tmp_path / "j.json", package_size=index)
        assert replayed == 1 and recovered.snapshot() == cache.snapshot()

    def test_v2_file_written_by_the_parent_loads_and_resaves_as_v4(
        self, tmp_path, monkeypatch
    ):
        fixture = FIXTURES / "state_v2.json"
        assert fixture.read_text().startswith('{"version":2,"checksum":')
        size = PackageIndex.of({f"p{i}": 10 for i in range(30)})
        # verified as it lies: the canonical re-dump is never needed
        monkeypatch.setattr(json, "dumps", None)
        bundle = load_bundle(fixture, size)
        monkeypatch.undo()
        assert bundle.metadata == {"site": "s0"} and bundle.journal_seq == 5
        recorded = json.loads(fixture.read_text())["cache"]
        assert recorded["policy"]["use_minhash"] is False
        recorded["policy"] = {knob: value
                              for knob, value in recorded["policy"].items()
                              if knob not in RETIRED_KNOBS}
        assert bundle.cache.snapshot() == recorded
        resaved = save_state(tmp_path / "s.json", bundle.cache,
                             bundle.metadata, bundle.journal_seq)
        payload = json.loads(resaved.read_text())
        assert payload["version"] == 4
        assert not set(payload["cache"]["policy"]) & set(RETIRED_KNOBS)
        again = load_bundle(resaved, size)
        assert again.cache.snapshot() == bundle.cache.snapshot()

    def test_v3_file_loads_and_resaves_as_v4(self, tmp_path):
        v3 = edited_v3_file(tmp_path, lambda c: None)
        assert json.loads(v3.read_text())["cache"]["universe"] == [
            "p9", "p10", "p0", "p1", "p2"]
        bundle = load_bundle(v3, SIZE_OF)
        assert not bundle.canonical
        assert bundle.cache.snapshot() == two_image_cache().snapshot()
        resaved = save_state(tmp_path / "v4.json", bundle.cache)
        assert json.loads(resaved.read_text())["cache"] == \
            two_image_cache().mask_snapshot()

    def test_unknown_version_lists_what_is_read(self, tmp_path):
        path = save_state(tmp_path / "s.json", warm_cache())
        path.write_text(path.read_text().replace(
            '{"version":4,', '{"version":5,', 1))
        with pytest.raises(StateError, match=r"version 5 unsupported.*2, 3, 4"):
            load_state(path, SIZE_OF)

    @pytest.mark.parametrize("edit, complaint", [
        (lambda c: c["universe"].append(c["universe"][0]), "twice"),
        (lambda c: c["universe"].__setitem__(0, 7), "package names"),
        (lambda c: c.__setitem__("universe", "p0"), "package names"),
        (lambda c: c["universe"].__setitem__(0, "ghost"),
         "unknown package: 'ghost'"),
        (lambda c: c["images"][1].__setitem__("mask", "xyz"),
         "img-000001.*not a hex"),
        (lambda c: c["images"][1].__setitem__("mask", 3),
         "img-000001.*not a hex"),
        (lambda c: c["images"][1].__setitem__("mask", "-3"),
         "img-000001.*negative"),
        (lambda c: c["images"][0].__setitem__("mask", "100"),
         "img-000000.*bit 8.*5 names"),
        (lambda c: c["images"][0].__setitem__("packages", ["p0"]),
         "img-000000.*exactly one"),
        (lambda c: c["images"][1].pop("mask"), "img-000001.*exactly one"),
        (lambda c: c["images"][1].__setitem__("id", "img-000000"),
         "duplicate image id"),
    ])
    def test_bad_table_is_a_state_error_naming_the_image(
        self, tmp_path, edit, complaint
    ):
        """A v3 file's name table or hex masks."""
        path = edited_v3_file(tmp_path, edit)
        with pytest.raises(StateError, match=complaint):
            load_bundle(path, SIZE_OF)

    @pytest.mark.parametrize("edit, complaint", [
        (lambda c: c["images"][1].__setitem__("mask", "xyz"),
         "img-000001.*invalid mask text.*padding"),
        (lambda c: c["images"][1].__setitem__("mask", "-3=="),
         "img-000001.*invalid mask text"),
        (lambda c: c["images"][1].__setitem__("mask", "Aw==Aw=="),
         "img-000001.*invalid mask text.*not canonical"),
        (lambda c: c["images"][1].__setitem__("mask", "é"),
         "img-000001.*invalid mask text.*ASCII"),
        (lambda c: c["images"][1].__setitem__("mask", 3),
         "img-000001.*mask text is a int"),
        (lambda c: c["images"][0].__setitem__("mask", mask_text(1 << 30)),
         "img-000000.*bit 30.*30 names"),
        (lambda c: c.pop("repository"), "img-000000.*names no repository"),
        (lambda c: c.__setitem__("repository", "sha256:0"),
         "written against the repository sha256:0"),
        (lambda c: c["images"][0].__setitem__("packages", ["p0"]),
         "img-000000.*exactly one"),
        (lambda c: c["images"][1].__setitem__("id", "img-000000"),
         "duplicate image id"),
    ])
    def test_bad_mask_is_a_state_error_naming_the_image(
        self, tmp_path, edit, complaint
    ):
        """A v4 file's masks."""
        path = edited_v4_file(tmp_path, edit)
        with pytest.raises(StateError, match=complaint):
            load_bundle(path, SIZE_OF)

    @pytest.mark.parametrize("section", ["policy", "stats"])
    def test_section_that_is_not_an_object_is_a_state_error(
        self, tmp_path, section
    ):
        path = edited_v4_file(tmp_path, lambda c: c.__setitem__(section, []))
        with pytest.raises(StateError, match=f"{section} is a list"):
            load_bundle(path, SIZE_OF)

    def test_bad_table_leaves_the_cache_untouched(self):
        for state in (warm_cache().mask_snapshot(), v3_record(warm_cache())):
            state["images"][-1]["mask"] = "-1"
            cache = make_cache()
            with pytest.raises(ValueError, match="invalid|negative"):
                cache.restore(state)
            assert len(cache) == 0 and cache.stats.requests == 0
            assert cache._universe.index is SIZE_OF
            cache.restore(warm_cache().mask_snapshot())  # still fresh
            assert cache.snapshot() == warm_cache().snapshot()


class TestRetiredPrefilter:
    """State files record the merge prefilter the cache no longer has:
    switched off they load as if it had never been recorded, switched on
    they are refused by name before the cache is touched."""

    def test_v3_file_recording_it_off_loads(self, tmp_path):
        plain = load_bundle(
            edited_v3_file(tmp_path, lambda c: None), SIZE_OF)
        path = edited_v3_file(tmp_path, lambda c: c["policy"].update(OFF))
        assert json.loads(path.read_text())["cache"]["policy"]["minhash_bands"]
        loaded = load_bundle(path, SIZE_OF)
        assert loaded.cache.snapshot() == plain.cache.snapshot()

    @pytest.mark.parametrize("source", ["v2-fixture", "v3"])
    def test_recorded_on_is_refused_by_name(self, tmp_path, source):
        if source == "v3":
            path = edited_v3_file(
                tmp_path, lambda c: c["policy"].update(OFF, use_minhash=True))
        else:
            payload = json.loads((FIXTURES / "state_v2.json").read_text())
            payload["cache"]["policy"]["use_minhash"] = True
            body = {key: payload[key]
                    for key in ("metadata", "journal_seq", "cache")}
            payload["checksum"] = body_checksum(body)
            path = tmp_path / "s.json"
            path.write_text(json.dumps(payload))
        with pytest.raises(
            StateError, match="use_minhash=True.*load it with commit 972d360"
        ):
            load_bundle(path, SIZE_OF)

    def test_refusal_leaves_the_cache_untouched(self):
        state = warm_cache().mask_snapshot()
        state["policy"].update(OFF, use_minhash=True)
        cache = make_cache()
        with pytest.raises(ValueError, match="use_minhash"):
            cache.restore(state)
        assert len(cache) == 0 and cache._universe.index is SIZE_OF
        cache.restore(warm_cache().mask_snapshot())  # still fresh
        assert cache.snapshot() == warm_cache().snapshot()

    def test_file_saved_here_round_trips_without_the_knobs(self, tmp_path):
        cache = warm_cache()
        path = save_state(tmp_path / "s.json", cache)
        policy = json.loads(path.read_text())["cache"]["policy"]
        assert not set(policy) & set(RETIRED_KNOBS)
        loaded, _ = load_state(path, SIZE_OF)
        assert loaded.snapshot() == cache.snapshot()
        again = save_state(tmp_path / "again.json", loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_the_cache_takes_no_prefilter_argument(self):
        with pytest.raises(TypeError, match="use_minhash"):
            make_cache(use_minhash=False)


class TestSubmitCli:
    def test_submit_flow(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments.common import get_scale
        from repro.packages.sft import build_experiment_repository

        scale = get_scale("tiny")
        repo = build_experiment_repository(
            "sft", seed=2020, n_packages=scale.n_packages,
            target_total_size=scale.repo_total_size,
        )
        apps = [i for i in repo.ids if i.startswith("app-")]
        spec = tmp_path / "job.txt"
        spec.write_text("\n".join(apps[:3]))
        state = tmp_path / "state.json"

        assert main(["submit", str(spec), "--state", str(state),
                     "--scale", "tiny"]) == 0
        first = capsys.readouterr().out
        assert "insert" in first

        assert main(["submit", str(spec), "--state", str(state),
                     "--scale", "tiny"]) == 0
        second = capsys.readouterr().out
        assert "hit" in second

        assert main(["cache-status", "--state", str(state),
                     "--scale", "tiny"]) == 0
        status = capsys.readouterr().out
        assert "2 requests" in status

    def test_submit_rejects_repo_mismatch(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.common import get_scale
        from repro.packages.sft import build_experiment_repository

        scale = get_scale("tiny")
        repo = build_experiment_repository(
            "sft", seed=2020, n_packages=scale.n_packages,
            target_total_size=scale.repo_total_size,
        )
        spec = tmp_path / "job.txt"
        spec.write_text(repo.ids[0])
        state = tmp_path / "state.json"
        main(["submit", str(spec), "--state", str(state), "--scale", "tiny"])
        capsys.readouterr()
        # different seed => different site repository => refuse
        code = main(["submit", str(spec), "--state", str(state),
                     "--scale", "tiny", "--seed", "7"])
        assert code == 2

    def test_submit_unresolvable_spec_aborts(self, tmp_path, capsys):
        # bad input is exit 2, and a spec is read before the site is
        # touched: no state, journal or lock file
        from repro.cli import main

        spec = tmp_path / "job.txt"
        spec.write_text("definitely-not-a-package\n")
        assert main(["submit", str(spec), "--state",
                     str(tmp_path / "s.json"), "--scale", "tiny"]) == 2
        err = capsys.readouterr().err
        assert "unresolvable" in err and "definitely-not-a-package" in err
        assert [p.name for p in tmp_path.iterdir()] == ["job.txt"]

    def test_submit_json_specfile(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.common import get_scale
        from repro.packages.sft import build_experiment_repository
        import json

        scale = get_scale("tiny")
        repo = build_experiment_repository(
            "sft", seed=2020, n_packages=scale.n_packages,
            target_total_size=scale.repo_total_size,
        )
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({"packages": repo.ids[:3]}))
        code = main(["submit", str(spec), "--state",
                     str(tmp_path / "s.json"), "--scale", "tiny"])
        assert code == 0
        assert "insert" in capsys.readouterr().out

    def test_submit_with_user_repository_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.packages import Package, Repository, save_repository

        repo = Repository([
            Package("base/1.0", 100),
            Package("tool/2.0", 200, deps=("base/1.0",)),
        ])
        repo_file = tmp_path / "repo.jsonl"
        save_repository(repo_file, repo)
        spec = tmp_path / "job.txt"
        spec.write_text("tool/2.0\n")
        code = main(["submit", str(spec), "--state",
                     str(tmp_path / "s.json"), "--repo", str(repo_file),
                     "--capacity", "10KB"])
        assert code == 0
        out = capsys.readouterr().out
        assert "insert" in out and "2 pkgs" in out
