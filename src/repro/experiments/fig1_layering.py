"""Figure 1: refining via layers vs. composition.

The paper's figure is a schematic of three jobs served by layered images
versus composed (specification-level) images, making two points:

1. content masked by a later layer is still stored and transferred;
2. identical requirements reached along different histories are invisible
   to a layer store but obvious to a composition store.

``run`` reproduces the schematic with the literal three-job example and
then generalises it: a stream of evolving job requirements is served by
(a) a Docker-style :class:`~repro.containers.layers.LayerStore` that
refines images by appending layers, and (b) a LANDLORD cache that composes
specifications — comparing stored bytes and requirement-recognition.
"""

from __future__ import annotations

from typing import Dict

from repro.containers.layers import LayeredImage, LayerStore
from repro.core.cache import LandlordCache
from repro.experiments.common import Scale, base_config, experiment_main
from repro.htc.simulator import make_workload
from repro.packages.sft import build_experiment_repository
from repro.util.rng import spawn
from repro.util.tables import render_table
from repro.util.units import format_bytes

__all__ = ["run", "report", "main"]


def _schematic() -> Dict[str, object]:
    """The literal Figure 1 example: jobs {A,B}, {A,B,C}, {A,B}."""
    sizes = {"A": 10, "B": 20, "C": 30}
    size_of = sizes.__getitem__
    jobs = [{"A", "B"}, {"A", "B", "C"}, {"A", "B"}]

    # Layering: refine one image per job by appending layers.
    store = LayerStore()
    image = LayeredImage()
    image = image.extend({"A", "B"}, size_of)            # job 1
    store.push("v1", image)
    image = image.extend({"C"}, size_of)                 # job 2: add C
    store.push("v2", image)
    image = image.extend((), size_of, masks={"C"})       # job 3: mask C
    store.push("v3", image)
    layering = {
        "stored_bytes": store.stored_bytes,
        "images": store.image_count,
        "layers": store.distinct_layers,
        # v3's visible contents equal v1's, but they are distinct artifacts:
        "equivalence_detected": store.get("v1").head_id()
        == store.get("v3").head_id(),
    }

    # Composition: a Landlord cache recognises job 3 as a subset of job 2's
    # merged image (or an exact repeat of job 1's).
    cache = LandlordCache(capacity=1 << 40, alpha=0.8, package_size=size_of)
    actions = [cache.request(frozenset(job)).action.value for job in jobs]
    composition = {
        "stored_bytes": cache.cached_bytes,
        "images": len(cache),
        "actions": actions,
        "equivalence_detected": actions[2] == "hit",
    }
    return {"jobs": [sorted(j) for j in jobs], "layering": layering,
            "composition": composition}


def run(scale: Scale, seed: int = 2020) -> Dict[str, object]:
    """Schematic plus a randomized generalisation on the SFT repository."""
    repo = build_experiment_repository(
        "sft", seed=seed, n_packages=scale.n_packages,
        target_total_size=scale.repo_total_size,
    )
    config = base_config(scale, seed=seed)
    workload = make_workload(config, repo)
    rng = spawn(seed, "fig1")

    n_users = 8
    steps_per_user = max(4, scale.n_unique // 20)
    layer_store = LayerStore()
    cache = LandlordCache(
        capacity=1 << 62, alpha=0.8, package_size=repo.size_of
    )
    recognised_by_layers = 0
    recognised_by_composition = 0
    total_jobs = 0

    for user in range(n_users):
        # Each user's requirements evolve: start from a spec, then drift by
        # adding/removing a few packages per step (new version, new tool).
        current = set(workload.sample(rng))
        image = LayeredImage()
        image = image.extend(current, repo.size_of)
        layer_store.push(f"u{user}", image)
        cache.request(frozenset(current))
        total_jobs += 1
        for _ in range(steps_per_user - 1):
            additions = set(workload.sample(rng))
            drop_count = min(len(current) // 4, 25)
            # Sorted: a set of strings iterates in hash order, which
            # changes with PYTHONHASHSEED from one process to the next.
            ordered = sorted(current)
            drops = set(
                ordered[i]
                for i in rng.choice(len(current), size=drop_count, replace=False)
            ) if drop_count else set()
            current = (current - drops) | additions

            # Each requirement set runs twice (re-runs per dataset are the
            # norm in HTC) — the repeat is where reuse recognition matters.
            wanted = frozenset(current)
            for _repeat in range(2):
                total_jobs += 1
                visible_before = image.visible_packages
                if wanted <= visible_before:
                    recognised_by_layers += 1
                else:
                    image = image.extend(
                        wanted - visible_before, repo.size_of,
                        masks=visible_before - wanted,
                    )
                    layer_store.push(f"u{user}", image)
                if cache.request(wanted).action.value == "hit":
                    recognised_by_composition += 1

    return {
        "schematic": _schematic(),
        "generalised": {
            "jobs": total_jobs,
            "layering_stored_bytes": layer_store.stored_bytes,
            "layering_layers": layer_store.distinct_layers,
            "layering_hits": recognised_by_layers,
            "composition_stored_bytes": cache.cached_bytes,
            "composition_unique_bytes": cache.unique_bytes,
            "composition_images": len(cache),
            "composition_hits": cache.stats.hits,
            "composition_merges": cache.stats.merges,
        },
    }


def report(results: Dict[str, object]) -> str:
    """Render computed results as paper-style text output."""
    schematic = results["schematic"]
    gen = results["generalised"]
    lines = ["Figure 1 — refining via layers vs. composition", ""]
    lay, comp = schematic["layering"], schematic["composition"]
    lines.append("Three-job schematic (jobs: {A,B}, {A,B,C}, {A,B}):")
    lines.append(
        render_table(
            [
                ["layering", lay["stored_bytes"], lay["images"],
                 "no" if not lay["equivalence_detected"] else "yes"],
                ["composition", comp["stored_bytes"], comp["images"],
                 "yes" if comp["equivalence_detected"] else "no"],
            ],
            header=["strategy", "stored bytes", "images", "jobs 1&3 shared?"],
        )
    )
    lines.append("")
    lines.append(f"Generalised drift workload ({gen['jobs']} jobs, 8 users):")
    lines.append(
        render_table(
            [
                ["layering", format_bytes(gen["layering_stored_bytes"]),
                 gen["layering_layers"], gen["layering_hits"]],
                ["composition", format_bytes(gen["composition_stored_bytes"]),
                 gen["composition_images"], gen["composition_hits"]],
            ],
            header=["strategy", "stored", "units", "reuse hits"],
        )
    )
    ratio = gen["layering_stored_bytes"] / max(1, gen["composition_stored_bytes"])
    lines.append("")
    lines.append(
        f"Layering stores {ratio:.2f}x the composed cache's bytes across "
        f"{gen['layering_layers']} layers vs {gen['composition_images']} "
        "composed images; masked history is never reclaimed, and layering "
        "can only reuse its own current head, while composition recognises "
        "any equivalent or subset requirements (the schematic's jobs 1&3)."
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point (argparse wrapper around run/report)."""
    return experiment_main(__doc__.splitlines()[0], run, report, argv)


if __name__ == "__main__":
    raise SystemExit(main())
