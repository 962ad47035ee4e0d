"""Property test: persistence is transparent to future cache behaviour.

For any request stream and any split point, running the stream straight
through must be indistinguishable from snapshotting at the split,
restoring into a fresh cache, and continuing — the guarantee the
job-wrapper CLI relies on across invocations.  The same holds through
the state file, whose format (v3: one name table, one mask per image)
renumbers every package id on load.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cache import LandlordCache

PACKAGES = [f"p{i}" for i in range(20)]
SIZE = {p: (i % 4 + 1) * 10 for i, p in enumerate(PACKAGES)}

streams = st.lists(
    st.frozensets(st.sampled_from(PACKAGES), min_size=1, max_size=6),
    min_size=2,
    max_size=30,
)
alphas = st.sampled_from([0.0, 0.5, 0.8, 1.0])
capacities = st.sampled_from([80, 300, 10**9])


def fresh(alpha, capacity):
    return LandlordCache(capacity, alpha, SIZE.__getitem__)


@settings(max_examples=80, deadline=None)
@given(streams, alphas, capacities, st.data())
def test_snapshot_restore_is_transparent(stream, alpha, capacity, data):
    split = data.draw(st.integers(0, len(stream)))

    straight = fresh(alpha, capacity)
    for spec in stream:
        straight.request(spec)

    first = fresh(alpha, capacity)
    for spec in stream[:split]:
        first.request(spec)
    resumed = fresh(alpha, capacity)
    resumed.restore(first.snapshot())
    decisions = []
    for spec in stream[split:]:
        decisions.append(resumed.request(spec))

    assert resumed.stats == straight.stats
    assert resumed.cached_bytes == straight.cached_bytes
    assert resumed.unique_bytes == straight.unique_bytes
    assert {i.id for i in resumed.images} == {i.id for i in straight.images}
    assert {i.packages for i in resumed.images} == {
        i.packages for i in straight.images
    }


@settings(max_examples=40, deadline=None)
@given(streams, alphas, capacities, st.integers(1, 5))
def test_file_layer_is_transparent(stream, alpha, capacity, every):
    """The full durable store (snapshot file + write-ahead journal, one
    process per request, snapshot every k-th operation) must reproduce
    the purely in-memory run decision for decision."""
    import tempfile
    from pathlib import Path

    from repro.core.journal import JournaledState
    from repro.core.persistence import StateNotFound

    straight = fresh(alpha, capacity)
    expected = [straight.request(spec) for spec in stream]

    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state.json"
        got = []
        for spec in stream:
            # each request is its own "process": recover from disk first
            store = JournaledState(state, snapshot_every=every)
            try:
                cache, metadata, _ = store.load(SIZE.__getitem__)
            except StateNotFound:
                cache, metadata = fresh(alpha, capacity), {}
                store.initialise(cache, metadata)
            got.append(
                store.apply(
                    cache, metadata, "request", packages=sorted(spec)
                )
            )
        final_store = JournaledState(state, snapshot_every=every)
        final, _meta, _ = final_store.load(SIZE.__getitem__)

    assert [(d.action, d.image.id) for d in got] == [
        (d.action, d.image.id) for d in expected
    ]
    assert final.stats == straight.stats
    assert {i.packages for i in final.images} == {
        i.packages for i in straight.images
    }


# -- state format v3: the file is transparent too ---------------------------

specs = st.frozensets(st.sampled_from(PACKAGES), min_size=1, max_size=6)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("request"), specs),
        st.tuples(st.just("submit_batch"),
                  st.lists(specs, min_size=1, max_size=5)),
        st.tuples(st.just("evict_idle"), st.integers(0, 6)),
        st.tuples(st.just("split"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("adopt"), specs),
    ),
    min_size=1,
    max_size=25,
)
configurations = st.fixed_dictionaries({
    "engine": st.sampled_from(["naive", "vectorized"]),
    "eviction": st.sampled_from(["lru", "fifo", "size"]),
    "candidate_order": st.sampled_from(["distance", "random"]),
})


def perform(cache, op, arg):
    if op == "split":
        images = cache.images
        if not images:
            return
        image = images[arg % len(images)]
        names = sorted(image.packages)
        cut = arg % len(names)
        # Two parts that cover the image, or one that drops the rest.
        parts = ([names[:cut], names[cut:]] if cut
                 else [names[: len(names) // 2 + 1]])
        cache.split(image.id, parts)
    else:
        getattr(cache, op)(arg)


@settings(max_examples=120, deadline=None)
@given(operations, configurations, alphas, capacities,
       st.lists(specs, min_size=50, max_size=50))
def test_state_file_is_transparent(ops, config, alpha, capacity, future):
    """Whatever built the cache — evictions that leave dead names behind,
    splits, adoptions, a shuffling RNG — the file gives back a cache
    equal under ``snapshot()`` that then decides, emits and ends exactly
    as the live one does.  Ids are renumbered on load, so nothing here
    may depend on them."""
    import tempfile
    from pathlib import Path

    from repro.core.persistence import load_bundle, save_state

    live = LandlordCache(capacity, alpha, SIZE.__getitem__,
                         record_events=True, **config)
    for op, arg in ops:
        perform(live, op, arg)

    with tempfile.TemporaryDirectory() as tmp:
        path = save_state(Path(tmp) / "state.json", live, {"k": "v"}, 3)
        bundle = load_bundle(path, SIZE.__getitem__, record_events=True,
                             **config)
    loaded = bundle.cache
    assert (bundle.metadata, bundle.journal_seq) == ({"k": "v"}, 3)
    assert loaded.snapshot() == live.snapshot()
    assert loaded.cached_bytes == live.cached_bytes
    assert loaded.unique_bytes == live.unique_bytes

    mark = len(live.events)
    for spec in future:
        a, b = live.request(spec), loaded.request(spec)
        assert (a.action, a.image.id) == (b.action, b.image.id)
    assert loaded.events == live.events[mark:]
    assert loaded.snapshot() == live.snapshot()
