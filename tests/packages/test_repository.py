"""Tests for repro.packages.repository: lookup, closure, sizes, validation."""

import pytest

from repro.packages.package import Package
from repro.packages.repository import Repository, RepositoryError


class TestConstruction:
    def test_duplicate_id_rejected(self):
        with pytest.raises(RepositoryError, match="duplicate"):
            Repository([Package("a/1.0", 1), Package("a/1.0", 2)])

    def test_missing_dependency_rejected(self):
        with pytest.raises(RepositoryError, match="missing"):
            Repository([Package("a/1.0", 1, deps=("ghost/1.0",))])

    def test_two_node_cycle_rejected(self):
        with pytest.raises(RepositoryError, match="cycle"):
            Repository(
                [
                    Package("a/1.0", 1, deps=("b/1.0",)),
                    Package("b/1.0", 1, deps=("a/1.0",)),
                ]
            )

    def test_longer_cycle_rejected(self):
        with pytest.raises(RepositoryError, match="cycle"):
            Repository(
                [
                    Package("a/1.0", 1, deps=("b/1.0",)),
                    Package("b/1.0", 1, deps=("c/1.0",)),
                    Package("c/1.0", 1, deps=("a/1.0",)),
                ]
            )

    def test_any_insertion_order_of_a_dag_is_accepted(self, tiny_repo):
        # Dependencies-first input is validated by the one insertion walk;
        # any other order of the same DAG must come out the same.
        ordered = [tiny_repo[pid] for pid in
                   ("base/1.0", "libA/1.0", "libB/1.0", "appX/1.0")]
        for packages in (ordered, ordered[::-1]):
            repo = Repository(packages)
            assert repo.closure_of("appX/1.0") == {p.id for p in ordered}

    def test_cycle_behind_a_dependencies_first_prefix_rejected(self):
        with pytest.raises(RepositoryError, match="cycle"):
            Repository(
                [
                    Package("base/1.0", 1),
                    Package("lib/1.0", 1, deps=("base/1.0",)),
                    Package("a/1.0", 1, deps=("lib/1.0", "b/1.0")),
                    Package("b/1.0", 1, deps=("a/1.0",)),
                ]
            )

    def test_missing_dependency_reported_before_a_cycle(self):
        with pytest.raises(RepositoryError, match="missing 'ghost/1.0'"):
            Repository(
                [
                    Package("a/1.0", 1, deps=("b/1.0",)),
                    Package("b/1.0", 1, deps=("a/1.0",)),
                    Package("c/1.0", 1, deps=("ghost/1.0",)),
                ]
            )

    def test_duplicate_after_out_of_order_input_rejected(self):
        with pytest.raises(RepositoryError, match="duplicate"):
            Repository(
                [
                    Package("a/1.0", 1, deps=("b/1.0",)),
                    Package("b/1.0", 1),
                    Package("a/1.0", 2),
                ]
            )

    def test_empty_repository_allowed(self):
        repo = Repository([])
        assert len(repo) == 0 and repo.total_size == 0


class TestContainerProtocol:
    def test_len_contains_iter(self, tiny_repo):
        assert len(tiny_repo) == 8
        assert "base/1.0" in tiny_repo
        assert "ghost/1.0" not in tiny_repo
        assert sorted(tiny_repo) == tiny_repo.ids

    def test_getitem(self, tiny_repo):
        assert tiny_repo["appX/1.0"].size == 40

    def test_getitem_unknown_raises_keyerror(self, tiny_repo):
        with pytest.raises(KeyError, match="ghost"):
            tiny_repo["ghost/1.0"]

    def test_ids_sorted_and_copied(self, tiny_repo):
        ids = tiny_repo.ids
        ids.append("mutated")
        assert "mutated" not in tiny_repo.ids


class TestClosure:
    def test_leaf_closure_includes_transitive_deps(self, tiny_repo):
        assert tiny_repo.closure_of("appX/1.0") == {
            "appX/1.0", "libA/1.0", "libB/1.0", "base/1.0",
        }

    def test_root_closure_is_self(self, tiny_repo):
        assert tiny_repo.closure_of("base/1.0") == {"base/1.0"}

    def test_multi_package_closure_is_union(self, tiny_repo):
        closure = tiny_repo.closure(["appY/1.0", "appZ/1.0"])
        assert closure == {
            "appY/1.0", "appZ/1.0", "libA/1.0", "libB/1.0", "base/1.0",
        }

    def test_empty_closure(self, tiny_repo):
        assert tiny_repo.closure([]) == frozenset()

    def test_unknown_package_raises(self, tiny_repo):
        with pytest.raises(KeyError):
            tiny_repo.closure_of("ghost/1.0")

    def test_memoisation_returns_same_object(self, tiny_repo):
        a = tiny_repo.closure_of("appX/1.0")
        b = tiny_repo.closure_of("appX/1.0")
        assert a is b

    def test_deep_chain_does_not_recurse_out(self):
        n = 5000
        packages = [Package("p0/1.0", 1)]
        packages += [
            Package(f"p{i}/1.0", 1, deps=(f"p{i-1}/1.0",)) for i in range(1, n)
        ]
        repo = Repository(packages)
        assert len(repo.closure_of(f"p{n-1}/1.0")) == n


class TestSizes:
    def test_bytes_of_counts_each_package_once(self, tiny_repo):
        assert tiny_repo.bytes_of(["base/1.0", "base/1.0", "libA/1.0"]) == 30

    def test_total_size(self, tiny_repo):
        assert tiny_repo.total_size == 10 + 20 + 30 + 40 + 50 + 60 + 70 + 80

    def test_size_of(self, tiny_repo):
        assert tiny_repo.size_of("data/1.0") == 80


class TestStats:
    def test_dependents_index(self, tiny_repo):
        idx = tiny_repo.dependents_index()
        assert sorted(idx["libA/1.0"]) == ["appX/1.0", "appY/1.0"]
        assert idx["data/1.0"] == []

    def test_stats_fields(self, tiny_repo):
        stats = tiny_repo.stats()
        assert stats["packages"] == 8
        assert stats["roots"] == 3  # base, lone, data
        assert stats["max_direct_deps"] == 2
