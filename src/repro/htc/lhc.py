"""The LHC benchmark applications of Figure 2.

The paper characterises seven HEP benchmark applications (from the CERN
hep-workloads suite) run under Shrinkwrap: per-app running time, image
preparation time, minimal (tailored) image size, and the full size of the
experiment's CVMFS repository.

We cannot run the real applications, so each is modelled as a specification
against a synthetic per-experiment repository whose *total* size matches the
paper's "Full Repo" column, with the spec chosen so its dependency closure
lands near the paper's "Minimal Image" size.  Preparation time then comes
from the Shrinkwrap bandwidth model.  EXPERIMENTS.md records paper-reported
vs. model-measured values side by side.

Experiment repositories deliberately differ from the SFT simulation
repository in shape: the bulk of an experiment repo is a long tail of large
versioned release packages, while the shared core is comparatively small —
that is what makes few-GB tailored images possible out of multi-TB repos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.spec import ImageSpec
from repro.cvmfs.shrinkwrap import BuildReport, Shrinkwrap
from repro.packages.depgen import LayerSpec, layered_dag
from repro.packages.package import make_package_id
from repro.packages.repository import Repository
from repro.util.rng import spawn
from repro.util.units import GB, MB, TB

__all__ = [
    "PAPER_BENCHMARKS",
    "PaperBenchmark",
    "BenchmarkApp",
    "LHCSuite",
    "build_experiment_repository",
    "build_lhc_suite",
]


@dataclass(frozen=True)
class PaperBenchmark:
    """One row of Figure 2 as printed in the paper."""

    name: str
    experiment: str
    running_seconds: float
    prep_seconds: float
    minimal_image_bytes: int
    full_repo_bytes: int


# Figure 2, verbatim.
PAPER_BENCHMARKS: Tuple[PaperBenchmark, ...] = (
    PaperBenchmark("alice-gen-sim", "alice", 131, 59, int(6.0 * GB), 450 * GB),
    PaperBenchmark("atlas-gen", "atlas", 600, 37, int(2.7 * GB), int(4.8 * TB)),
    PaperBenchmark("atlas-sim", "atlas", 5340, 115, int(7.6 * GB), int(4.8 * TB)),
    PaperBenchmark("cms-digi", "cms", 629, 62, int(8.4 * GB), int(8.8 * TB)),
    PaperBenchmark("cms-gen-sim", "cms", 2360, 71, int(6.1 * GB), int(8.8 * TB)),
    PaperBenchmark("cms-reco", "cms", 961, 78, int(7.3 * GB), int(8.8 * TB)),
    PaperBenchmark("lhcb-gen-sim", "lhcb", 1010, 67, int(3.7 * GB), int(1.0 * TB)),
)

EXPERIMENT_REPO_BYTES: Dict[str, int] = {
    "alice": 450 * GB,
    "atlas": int(4.8 * TB),
    "cms": int(8.8 * TB),
    "lhcb": int(1.0 * TB),
}


@dataclass(frozen=True)
class BenchmarkApp:
    """A modelled benchmark application bound to its experiment repository."""

    paper: PaperBenchmark
    spec: ImageSpec               # the requested packages (pre-closure)
    closure: FrozenSet[str]       # full image contents
    image_bytes: int              # modelled minimal-image size
    measured_prep_seconds: float  # Shrinkwrap model, whole closure fetched

    @property
    def name(self) -> str:
        return self.paper.name

    @property
    def experiment(self) -> str:
        return self.paper.experiment

    @property
    def runtime_seconds(self) -> float:
        return self.paper.running_seconds


def _experiment_namer(experiment: str):
    def namer(layer: int, index: int) -> str:
        kind = ("base", "lib", "release")[layer]
        return make_package_id(f"{experiment}-{kind}-{index:04d}", "1.0")

    return namer


def build_experiment_repository(
    experiment: str,
    seed: Optional[int] = 2020,
    n_packages: int = 3000,
) -> Repository:
    """A per-experiment repository totalling the paper's full-repo size.

    Structure: a small shared base (~60 packages), a mid layer of common
    libraries, and a long tail of large release packages carrying most of
    the repository's bytes.
    """
    total = EXPERIMENT_REPO_BYTES.get(experiment)
    if total is None:
        raise ValueError(f"unknown experiment: {experiment!r}")
    n_base = 60
    n_lib = 600
    n_release = n_packages - n_base - n_lib
    if n_release < 10:
        raise ValueError("n_packages too small for experiment structure")
    base_mean = 60 * MB
    lib_mean = 120 * MB
    fixed = n_base * base_mean + n_lib * lib_mean
    release_mean = max(10 * MB, (total - fixed) / n_release)
    layers = [
        LayerSpec(count=n_base, mean_size=base_mean),
        LayerSpec(count=n_lib, dep_range=(2, 5), zipf_s=0.8, mean_size=lib_mean),
        LayerSpec(
            count=n_release,
            dep_range=(2, 6),
            core_fraction=0.4,
            zipf_s=0.7,
            mean_size=release_mean,
        ),
    ]
    rng = spawn(seed, "lhc-repo", experiment)
    # Pin the realised total exactly to the paper's full-repo size; the
    # lognormal draw has high variance at small package counts.
    return Repository(
        layered_dag(
            rng, layers, namer=_experiment_namer(experiment), total_size=total
        )
    )


def select_spec_for_size(
    repository: Repository,
    target_bytes: int,
    seed: Optional[int] = 0,
    candidate_prefix: str = "",
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Greedily pick packages whose closure lands near ``target_bytes``.

    Returns ``(selection, closure)``.  Packages are probed in a seeded
    random order; a package is accepted while it keeps the closure at or
    under target and skipped otherwise (large release packages whose
    closures overshoot are passed over in favour of smaller ones).  The
    search stops once the closure is within 5% of target or the candidate
    order is exhausted.
    """
    rng = spawn(seed, "app-spec")
    ids = [
        pid for pid in repository.ids
        if candidate_prefix == "" or pid.startswith(candidate_prefix)
    ]
    if not ids:
        raise ValueError(f"no candidate packages match {candidate_prefix!r}")
    order = rng.permutation(len(ids))
    selection: List[str] = []
    closure: FrozenSet[str] = frozenset()
    size = 0
    best_single: Optional[str] = None
    best_single_gap = None
    for i in order:
        if size >= 0.95 * target_bytes:
            break
        pid = ids[int(i)]
        trial = closure | repository.closure_of(pid)
        trial_size = repository.bytes_of(trial)
        if trial_size > target_bytes:
            gap = trial_size - target_bytes
            if best_single_gap is None or gap < best_single_gap:
                best_single, best_single_gap = pid, gap
            continue
        selection.append(pid)
        closure, size = trial, trial_size
    if not selection and best_single is not None:
        # Everything overshoots alone: take the least-overshooting package.
        selection = [best_single]
        closure = repository.closure_of(best_single)
    return frozenset(selection), closure


@dataclass
class LHCSuite:
    """The seven benchmark apps with their experiment repositories."""

    repositories: Dict[str, Repository]
    apps: List[BenchmarkApp]

    def repository_for(self, app: BenchmarkApp) -> Repository:
        """The experiment repository an app builds against."""
        return self.repositories[app.experiment]

    def app(self, name: str) -> BenchmarkApp:
        """Look up a benchmark app by name (KeyError if unknown)."""
        for app in self.apps:
            if app.name == name:
                return app
        raise KeyError(f"unknown benchmark app: {name!r}")


def build_lhc_suite(
    seed: Optional[int] = 2020,
    n_packages: int = 3000,
) -> LHCSuite:
    """Build all experiment repositories and model the seven benchmarks."""
    repositories = {
        experiment: build_experiment_repository(experiment, seed, n_packages)
        for experiment in EXPERIMENT_REPO_BYTES
    }
    apps: List[BenchmarkApp] = []
    for idx, paper in enumerate(PAPER_BENCHMARKS):
        repo = repositories[paper.experiment]
        selection, closure = select_spec_for_size(
            repo, paper.minimal_image_bytes, seed=(seed or 0) + idx
        )
        report: BuildReport = Shrinkwrap(repo).build(
            closure, resolve_closure=False
        )
        apps.append(
            BenchmarkApp(
                paper=paper,
                spec=ImageSpec(selection, label=paper.name),
                closure=closure,
                image_bytes=report.image_bytes,
                measured_prep_seconds=report.prep_seconds,
            )
        )
    return LHCSuite(repositories=repositories, apps=apps)
