"""The four benchmark workloads: inputs made from the seed, one pass, checks.

A workload object is built from the run's seed (building it is part of the
measured set-up), and ``run_pass(k, call)`` runs pass ``k`` of the workload
through the fowlerlab public API and checks every operation it completed.
Pass ``k`` draws its inputs from ``(seed, k)``, so the same seed always gives
the same inputs and no pass repeats another's work.

A pass makes each of its timed calls (one experiment call per case; for
archive_sweep, the sweep and then the reloads) as ``call(fn, *args,
**kwargs)``, or as ``call.in_pool(...)`` when the work runs in pool workers,
so the runner can time each call on its own; checks stay outside them.  A
pass computes in ``processes`` processes at once.

The benchmark looks every fowlerlab function up on its module at call time
(``experiments.sweep``, ``serialize.load_trajectory``, ...), so the tracer in
``tracing.py`` sees these calls when it patches the module attributes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from fowlerlab import errors, experiments, serialize
from fowlerlab.dynamics import IntegratorSettings, integrate
from fowlerlab.experiments import SamplerSpec, shoot_settings
from fowlerlab.params import bubble_fowler, cylinder_amplitudes, make_params
from fowlerlab.state import FowlerState

# The package re-exports the classify function under the submodule's name,
# so the module itself is only reachable through sys.modules.
classify_module = sys.modules["fowlerlab.classify"]

DEFAULT_SEED = 0

#: sha256 (first 16 hex digits) of the verdict sequence of each workload's
#: reference batch, recorded on the code this benchmark was written against.
#: A change that alters any verdict of these fixed inputs fails the check.
REFERENCE_DIGESTS = {
    "semi_search": "8cd018907ec7cce7",
    "sign_change": "2518d5c96d3c810c",
    "shoot": "e1c8872d7819d0ce",
    "archive_sweep": "dd65df0138c5e7df",
}


@dataclass
class PassResult:
    """Operations completed in one pass, how many failed their check, and
    the verdict of each in order."""

    ops: int = 0
    failed: int = 0
    verdicts: list = field(default_factory=list)


class Direct:
    """The untimed ``call`` of ``run_pass``."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    in_pool = __call__


direct = Direct()


def derived_seed(seed: int, *keys: int) -> int:
    """Experiment seed for one (pass, case) of a run, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def digest(verdicts: list) -> str:
    return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()[:16]


class SemiSearch:
    """Semi-singular search at N = 4, 5, 6 in positive mode on [-15, 15]."""

    name = "semi_search"
    processes = 1
    CASES = ((4, 0.5), (5, 1.0), (6, 0.3))
    DRAWS = 4
    SETTINGS = IntegratorSettings(t_span=(-15.0, 15.0))

    def __init__(self, seed: int, workers: int, workdir: str):
        self.seed = seed
        self.params = [make_params(N, 1.0, 1.0, beta) for N, beta in self.CASES]

    def warm_up(self) -> None:
        experiments.semi_singular_search(
            self.params[0], n_runs=1, settings=self.SETTINGS, seed=self.seed
        )

    def run_pass(self, k: int, call=direct) -> PassResult:
        result = PassResult()
        lower_bounds = []
        for i, params in enumerate(self.params):
            report = call(
                experiments.semi_singular_search, params, n_runs=self.DRAWS,
                settings=self.SETTINGS, seed=derived_seed(self.seed, k, i),
            )
            result.ops += report.n_runs
            result.failed += report.summary["semi_singular_found"]
            result.verdicts += [f"N{params.N}:{r['verdict']}" for r in report.runs]
            stat = report.summary["lower_bound_stat"]
            if stat["count"]:
                lower_bounds.append(stat["min"])
        # The lower-bound statistic needs at least one both-singular orbit in
        # the pass, and its infimum must stay strictly positive.
        if not lower_bounds or min(lower_bounds) <= 0.0:
            result.failed = result.ops
        return result


class SignChange:
    """Sign-change experiment, horizon 50, on uniform-box draws."""

    name = "sign_change"
    processes = 1
    CASES = ((3, "psi_positive"), (3, "psi_zero"), (5, "psi_positive"))
    DRAWS = 5
    HORIZON = 50.0

    def __init__(self, seed: int, workers: int, workdir: str):
        self.seed = seed
        self.cases = [
            (make_params(N, 1.0, 1.0, 1.0), SamplerSpec(kind="uniform_box", projection=proj))
            for N, proj in self.CASES
        ]

    def warm_up(self) -> None:
        params, spec = self.cases[0]
        experiments.sign_change_experiment(
            params, spec, n_runs=1, seed=self.seed, horizon=self.HORIZON
        )

    def run_pass(self, k: int, call=direct) -> PassResult:
        result = PassResult()
        for i, (params, spec) in enumerate(self.cases):
            report = call(
                experiments.sign_change_experiment, params, spec, n_runs=self.DRAWS,
                seed=derived_seed(self.seed, k, i), horizon=self.HORIZON,
            )
            result.ops += report.n_runs
            if report.summary["detection_rate"] != 1.0:
                result.failed += len(report.failures)
            result.verdicts += [
                f"N{params.N}:{spec.projection}:{r['verdict']}" for r in report.runs
            ]
        return result


class Shoot:
    """Entire-orbit shooting for (N, beta) = (3, 1), (4, 2), (5, 1).

    shoot_entire takes no seed, so the seed draws the self-couplings
    mu1, mu2 of each pass from [0.9, 1.1]; the apex is then checked against
    the closed-form bubble of those coefficients.
    """

    name = "shoot"
    processes = 1
    CASES = ((3, 1.0), (4, 2.0), (5, 1.0))
    MU_RANGE = (0.9, 1.1)
    APEX_RTOL = 1e-6

    def __init__(self, seed: int, workers: int, workdir: str, cases=CASES):
        self.seed = seed
        self.cases = cases
        self.warm_params = self._params(cases[0], 0)

    def _params(self, case, k: int):
        mu1, mu2 = np.random.default_rng([self.seed, k]).uniform(*self.MU_RANGE, size=2)
        return make_params(case[0], float(mu1), float(mu2), case[1])

    def warm_up(self) -> None:
        # One forward integration from the exact apex, as a shoot makes ~56.
        params = self.warm_params
        settings = shoot_settings(params)
        apex = bubble_fowler(params, 1.0, 0.0)
        integrate(
            params, FowlerState(t=0.0, w1=apex.w1, w2=apex.w2, dw1=0.0, dw2=0.0),
            replace(settings, t_span=(0.0, settings.t_span[1])), mode="signed",
        )

    def run_pass(self, k: int, call=direct) -> PassResult:
        result = PassResult()
        for case in self.cases:
            params = self._params(case, k)
            N = params.N
            result.ops += 1
            try:
                data, traj = call(experiments.shoot_entire, params)
            except errors.BracketFailure:
                result.failed += 1
                result.verdicts.append(f"N{N}:BracketFailure")
                continue
            exact = bubble_fowler(params, 1.0, 0.0).w1
            if not abs(data.a1 - exact) / exact < self.APEX_RTOL:
                result.failed += 1
            verdict = classify_module.classify(params, traj).verdict
            result.verdicts.append(f"N{N}:{verdict}")
        return result


class ArchiveSweep:
    """Archived sweep over a 2 x 8 params x initial grid, then reload.

    The initial grid is drawn near the cylinder equilibrium of the first
    parameter set, so most orbits stay bounded and are monitored over the
    whole window.  An operation is one grid point archived by sweep, read
    back with load_trajectory and reclassified.
    """

    name = "archive_sweep"
    CASES = ((4, 1.0), (4, 0.7))
    GRID = 8
    SIGMA_SCALE = 0.05
    SETTINGS = IntegratorSettings(t_span=(-15.0, 15.0))

    def __init__(self, seed: int, workers: int, workdir: str):
        self.seed = seed
        self.workers = workers
        self.processes = workers
        self.workdir = workdir
        self.params = [make_params(N, 1.0, 1.0, beta) for N, beta in self.CASES]
        self.cylinder = np.array(cylinder_amplitudes(self.params[0]))

    def _grid(self, k: int, size: int) -> list[tuple[float, float, float, float]]:
        rng = np.random.default_rng([self.seed, k])
        sigma = self.SIGMA_SCALE * float(np.linalg.norm(self.cylinder))
        amplitudes = self.cylinder + rng.normal(0.0, sigma, size=(size, 2))
        slopes = rng.normal(0.0, sigma, size=(size, 2))
        return [(*map(float, a), *map(float, b)) for a, b in zip(amplitudes, slopes)]

    def _archive(self, tag: str, params_grid, grid, workers: int, call=direct) -> PassResult:
        directory = os.path.join(self.workdir, f"archive_{tag}")
        report = call.in_pool(
            experiments.sweep, params_grid, grid, self.SETTINGS, workers=workers,
            seed=self.seed, archive_dir=directory,
        )
        result = call(self._reload, directory, params_grid, report)
        shutil.rmtree(directory)
        return result

    @staticmethod
    def _reload(directory: str, params_grid, report) -> PassResult:
        """Read back and reclassify every artifact the sweep archived."""
        result = PassResult()
        for record in report.runs:
            result.ops += 1
            verdict = record["verdict"]
            if verdict == "Error":
                result.failed += 1
                result.verdicts.append(verdict)
                continue
            try:
                traj = serialize.load_trajectory(os.path.join(directory, record["trajectory"]))
            except (errors.SchemaMismatch, OSError):
                result.failed += 1
                result.verdicts.append("Unreadable")
                continue
            again = classify_module.classify(params_grid[record["params_index"]], traj).verdict
            if again != verdict:
                result.failed += 1
            result.verdicts.append(f"{verdict}:{again}")
        return result

    def warm_up(self) -> None:
        self._archive("warm_up", self.params[:1], self._grid(0, 1), workers=1)

    def run_pass(self, k: int, call=direct) -> PassResult:
        return self._archive(str(k), self.params, self._grid(k, self.GRID), self.workers, call)


WORKLOADS = {w.name: w for w in (SemiSearch, SignChange, Shoot, ArchiveSweep)}


def reference(name: str, workers: int, workdir: str) -> PassResult:
    """Pass 0 of the workload on the default seed (shooting: N = 3 only)."""
    if name == "shoot":
        return Shoot(DEFAULT_SEED, workers, workdir, cases=Shoot.CASES[:1]).run_pass(0)
    return WORKLOADS[name](DEFAULT_SEED, workers, workdir).run_pass(0)
