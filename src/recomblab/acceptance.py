"""Acceptance registry: the numbered end-to-end checks for this package.

Each criterion is a self-contained callable deriving its own reference
values (closed forms, independent constructions, or pinned substreams of the
default seed) and returning a pass/fail verdict with a one-line summary.
The pytest suite and the command-line selftest both run this registry, so a
release is judged by one shared list.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import cube, discrete, profiles, yule
from .streams import DEFAULT_SEED, rng_substream

# deterministic coefficients are compared at this gate: float accumulation
# over 1e5 samples keeps an exactly-preserved value well inside it
EXACT_COEFF_TOL = 1e-9


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    passed: bool
    summary: str
    seconds: float

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} {self.slug}: {self.summary}"


@dataclass(frozen=True)
class Criterion:
    number: int
    slug: str
    fn: Callable[[int], tuple]

    def run(self, seed: int = DEFAULT_SEED) -> CriterionResult:
        """Run the check; one that raises fails with the exception as its summary."""
        start = time.perf_counter()
        try:
            passed, summary = self.fn(seed)
        except Exception as err:
            passed, summary = False, f"raised {type(err).__name__}: {err}"
        return CriterionResult(
            number=self.number,
            slug=self.slug,
            passed=passed,
            summary=summary,
            seconds=time.perf_counter() - start,
        )


def _criterion_1(seed: int):
    """Fourier collision equals the direct tensor-splice construction."""
    rng = rng_substream(seed, 1000)
    worst = 0.0
    for k in range(200):
        n = 1 + k % 6
        a = cube.random_pmf(n, rng)
        b = cube.random_pmf(n, rng)
        gap = float(
            np.abs(
                discrete.collide_direct(a, b).weights
                - discrete.collide_pmf(a, b).weights
            ).max()
        )
        worst = max(worst, gap)
    ok = worst <= 1e-12
    return ok, f"200 random pairs, n<=6, max weight gap {worst:.2e} (tol 1e-12)"


def _criterion_2(seed: int):
    """Closed-form mixture distance equals exact evolution from all-equal."""
    worst = 0.0
    for n in range(1, 13):
        mono = cube.monochromatic_pmf(n)
        pi = cube.stationary_product(mono)
        for t in range(0, 11):
            tv = cube.tv_distance(discrete.evolve_discrete(mono, t), pi)
            worst = max(worst, abs(tv - discrete.mono_mixture_tv(n, t)))
    ok = worst <= 1e-10
    return ok, f"n<=12, t<=10, max |tv - mixture formula| {worst:.2e} (tol 1e-10)"


def _criterion_3(seed: int):
    """Distance profile near the cutoff approaches the Gaussian profile.

    Pre-registered trend check: the worst profile gap at n=4096 must come
    out strictly below the worst gap at n=1024 on the same window grid.
    """
    windows = range(-3, 4)
    gaps = {}
    for n, t_base in ((1024, 10), (4096, 12)):
        gaps[n] = [
            abs(
                discrete.mono_mixture_tv(n, t_base + w)
                - profiles.gaussian_tv(2.0 ** (-w))
            )
            for w in windows
        ]
    worst = max(gaps[4096])
    shrinking = worst < max(gaps[1024])
    ok = worst <= 0.03 and shrinking
    return (
        ok,
        f"max gap at n=4096 {worst:.2e} (tol 0.03); "
        f"shrinks from n=1024 max {max(gaps[1024]):.2e}: {shrinking}",
    )


def _criterion_4(seed: int):
    """Site and plateau upper bounds hold along every dense trajectory."""
    rng = rng_substream(seed, 4000)
    violations = 0
    plateau_cases = 0
    checked = 0
    for n in range(1, 13):
        starts = [cube.monochromatic_pmf(n)] + [
            cube.random_balanced_pmf(n, rng) for _ in range(5)
        ]
        for mu in starts:
            pi = cube.stationary_product(mu)
            state = mu
            for t in range(0, 15):
                if t > 0:
                    state = discrete.collide_pmf(state, state)
                tv = cube.tv_distance(state, pi)
                bounds = discrete.discrete_upper_bounds(n, t)
                checked += 1
                if tv > bounds.site_union_bound + 1e-12:
                    violations += 1
                if bounds.plateau_bound is not None:
                    plateau_cases += 1
                    if tv > bounds.plateau_bound + 1e-12:
                        violations += 1
    ok = violations == 0
    return (
        ok,
        f"{checked} states, {plateau_cases} plateau cases, {violations} violations",
    )


def _criterion_5(seed: int):
    """Fixed-step distances at n=2000 sit on the large-n limit values."""
    worst = 0.0
    for t in (1, 2, 3):
        v = discrete.mono_mixture_tv(2000, t)
        worst = max(worst, abs(v - profiles.mono_tv_large_n_limit(t)))
    ok = worst <= 0.01
    return ok, f"t in 1..3, max |tv - limit| {worst:.2e} (tol 0.01)"


def _criterion_6(seed: int):
    """The distance curve rises again after its early collapse at n=200."""
    vals = [discrete.mono_mixture_tv(200, t) for t in range(0, 14)]
    bump = max(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    ok = bump > 0.05
    return ok, f"max one-step increase {bump:.4f} (needs > 0.05)"


def _criterion_7(seed: int):
    """Integrator hits the two-site closed form and converges at order 4."""
    mono = cube.monochromatic_pmf(2)
    pi = cube.stationary_product(mono)
    worst = 0.0
    for t in (1.0, 2.0, 4.0):
        tv = cube.tv_distance(yule.evolve_continuous(mono, t, step=1e-3), pi)
        worst = max(worst, abs(tv - math.exp(-t / 2.0) / 2.0))
    target = math.exp(-1.0) / 2.0
    coarse = abs(
        cube.tv_distance(yule.evolve_continuous(mono, 2.0, step=0.1), pi) - target
    )
    fine = abs(
        cube.tv_distance(yule.evolve_continuous(mono, 2.0, step=0.05), pi) - target
    )
    ratio = coarse / fine
    ok = worst <= 1e-6 and 12.0 <= ratio <= 20.0
    return (
        ok,
        f"closed-form error {worst:.2e} (tol 1e-6), halving ratio {ratio:.2f} in [12,20]",
    )


def _measure_agreement(est: yule.MonteCarloMeasure, exact_coeffs: np.ndarray):
    deterministic = est.coeff_stderr == 0.0
    exact_gap = float(
        np.abs(est.coeff_mean[deterministic] - exact_coeffs[deterministic]).max(
            initial=0.0
        )
    )
    z = np.abs(est.coeff_mean[~deterministic] - exact_coeffs[~deterministic])
    z /= est.coeff_stderr[~deterministic]
    return exact_gap, float(z.max(initial=0.0)), int(deterministic.sum())


def _criterion_8(seed: int):
    """Both stochastic representations reproduce the continuous semigroup.

    n=4, t=2, 1e5 samples; agreement is per character coefficient within 4
    standard errors, and coefficients whose sampling spread is exactly zero
    must match the integrator to EXACT_COEFF_TOL.
    """
    rng = rng_substream(seed, 8000)
    base = cube.random_pmf(4, rng)
    exact_c = cube.wht_forward(yule.evolve_continuous(base, 2.0, step=1e-3)).coeffs
    wild = yule.wild_mc_estimate(base, 2.0, 100_000, rng_substream(seed, 8001))
    dq = yule.double_quenched_estimate(base, 2.0, 100_000, rng_substream(seed, 8002))
    wg, wz, wd = _measure_agreement(wild, exact_c)
    dg, dz, dd = _measure_agreement(dq, exact_c)
    ok = (
        wz <= 4.0
        and dz <= 4.0
        and wg <= EXACT_COEFF_TOL
        and dg <= EXACT_COEFF_TOL
        and wd >= 1
        and dd >= 1
    )
    return (
        ok,
        f"tree-average max z {wz:.2f}, quenched-average max z {dz:.2f} (<=4); "
        f"deterministic coeffs gap {max(wg, dg):.1e}",
    )


def _criterion_9(seed: int):
    """Martingale means, below-one mass, and the size-biased identity."""
    parts = []
    ok = True
    for k, t in enumerate((1.0, 2.0, 5.0, 10.0)):
        batch = yule.martingale_samples(t, 100_000, rng_substream(seed, 9000 + k))
        m = float(batch.values.mean())
        se = float(batch.values.std(ddof=1)) / math.sqrt(batch.values.size)
        z = (m - 1.0) / se
        ok = ok and abs(z) <= 4.0
        parts.append(f"mean(t={t:g}) z={z:+.2f}")
    # the below-one probability is 1-e^{-t} while a single root split still
    # forces the value below one, i.e. for t <= 2 log 2
    for k, t in enumerate((0.5, 1.0)):
        batch = yule.martingale_samples(t, 100_000, rng_substream(seed, 9100 + k))
        phat = float((batch.values < 1.0).mean())
        target = -math.expm1(-t)
        se = math.sqrt(phat * (1.0 - phat) / batch.values.size)
        z = (phat - target) / se
        ok = ok and abs(z) <= 4.0
        parts.append(f"below-one(t={t:g}) z={z:+.2f}")
    for k, t in enumerate((1.0, 3.0)):
        report = yule.spinal_identity_check(t, 200_000, rng_substream(seed, 9200 + k))
        ok = ok and report.passed
        parts.append(f"spinal(t={t:g}) {'ok' if report.passed else 'FAIL'}")
    return ok, "; ".join(parts)


def _criterion_10(seed: int):
    """Small-value tail of the martingale limit steepens as epsilon shrinks."""
    values = yule.martingale_limit_samples(1_000_000, rng_substream(seed, 10_000))
    logs = []
    for eps in (0.5, 0.25, 0.125):
        est = yule.tail_probability_from_samples(values, eps)
        logs.append(math.log(est.probability))
    drop1 = logs[0] - logs[1]
    drop2 = logs[1] - logs[2]
    ok = logs[0] > logs[1] > logs[2] and drop2 > drop1 > 0
    return (
        ok,
        f"log tails {logs[0]:.3f} > {logs[1]:.3f} > {logs[2]:.3f}, "
        f"decrements {drop1:.3f} -> {drop2:.3f} growing",
    )


def _criterion_11(seed: int):
    """L1-from-L2 bound: no violations, and the extremal families touch it."""
    rng = rng_substream(seed, 11_000)
    violations = 0
    for _ in range(100):
        k = int(rng.integers(2, 33))
        p = rng.dirichlet(np.ones(k), size=1000)
        f = rng.exponential(1.0, size=(1000, k)) + 1e-12
        f /= (p * f).sum(axis=1, keepdims=True)
        dev = f - 1.0
        l1h = 0.5 * (p * np.abs(dev)).sum(axis=1)
        l2 = np.sqrt((p * dev * dev).sum(axis=1))
        violations += int((l1h > profiles.l1_from_l2_bound(l2) + 1e-12).sum())
    worst_eq = 0.0
    for a in (0.3, 0.7, 1.0):
        chk = profiles.check_l1_l2_bound(*profiles.two_valued_extremal_density(0.5, a))
        worst_eq = max(worst_eq, abs(chk.l1_half - chk.bound))
    for v in (0.5, 0.75, 0.9):
        chk = profiles.check_l1_l2_bound(
            np.array([v, 1.0 - v]), np.array([0.0, 1.0 / (1.0 - v)])
        )
        worst_eq = max(worst_eq, abs(chk.l1_half - chk.bound))
    ok = violations == 0 and worst_eq <= 1e-12
    return (
        ok,
        f"1e5 densities, {violations} violations; extremal equality gap {worst_eq:.1e}",
    )


def _criterion_12(seed: int):
    """Asymptotic ratio gates on the Gaussian profile at both extremes.

    The small-scale ratio (distance over s/sqrt(2 e pi) at s=1e-3) passes
    its 2% gate.  The large-scale gate demands the complement at s=1e6 to
    match sqrt(log s)/sqrt(2 pi s) within 5%, but the complement equals
    erfc(z/sqrt 2) + erf(z/sqrt(2(1+s))) with z^2 = (1+s)log(1+s)/s, whose
    erf term alone is about twice that reference (P(|N(0,1)|<=x) has slope
    2/sqrt(2 pi) at 0), so the measured ratio sits near 2.14 and the gate
    cannot be met; the halved ratio still misses by the erfc term's
    O(1/log s) contribution (about 7% at s=1e6).  The true large-s shape is
    2 sqrt(log s)/sqrt(2 pi s) * (1 + O(1/log s)); the measured ratio of the
    complement to it is 1.0680 at s=1e6, 1.0462 at s=1e9 and 1.0350 at
    s=1e12, tracking 1 + 1/log s (1.0724, 1.0483, 1.0362).  Kept as
    specified and expected to fail; see the README "Tests" section and the
    ROADMAP "Open items".
    """
    rep = profiles.gaussian_tv_asymptotics()
    ok = rep.passed_small and rep.passed_large
    return (
        ok,
        f"small-scale ratio {rep.small_scale_ratio:.4f} (2% gate: "
        f"{'ok' if rep.passed_small else 'FAIL'}); large-scale ratio "
        f"{rep.large_scale_ratio:.4f} vs gate [0.95, 1.05] "
        f"({'ok' if rep.passed_large else 'FAIL'}; halved diagnostic "
        f"{rep.large_scale_ratio_halved:.4f})",
    )


def _criterion_13(seed: int):
    """Exact discrete block experiment certifies a 0.9 distance lower bound."""
    rep = profiles.lowerbound_experiment_discrete(5120, 3)
    first_rel = abs(rep.first_moment_formula - rep.first_moment_exact) / rep.first_moment_exact
    second_rel = abs(rep.second_moment_formula - rep.second_moment_exact) / rep.second_moment_exact
    ok = (
        first_rel <= 1e-9
        and second_rel <= 1e-9
        and rep.stationary_event <= 1.0 / 20.0
        and rep.paley_zygmund_bound >= 1.0 / 12.0
        and rep.tv_lower_bound > 0.9
    )
    return (
        ok,
        f"moment formula rel gaps {first_rel:.1e}/{second_rel:.1e}; "
        f"rare-event mass {rep.stationary_event:.2e} <= 1/20; "
        f"second-moment bound {rep.paley_zygmund_bound:.3f} >= 1/12; "
        f"tv lower bound {rep.tv_lower_bound:.4f} > 0.9",
    )


def _criterion_14(seed: int):
    """Mixture profile: constant-input equivalence and sampled stability."""
    windows = list(range(-4, 5))
    worst_const = 0.0
    for w in windows:
        gap = abs(
            profiles.mixture_profile_tv(w, np.ones(8))
            - profiles.gaussian_tv(math.exp(-w / 2.0))
        )
        worst_const = max(worst_const, gap)
    values_a = yule.martingale_limit_samples(10_000, rng_substream(seed, 14_000))
    values_b = yule.martingale_limit_samples(10_000, rng_substream(seed, 14_001))
    prof_a = [profiles.mixture_profile_tv(w, values_a) for w in windows]
    prof_b = [profiles.mixture_profile_tv(w, values_b) for w in windows]
    monotone = all(prof_a[i + 1] < prof_a[i] for i in range(len(windows) - 1))
    in_range = all(0.0 <= v <= 1.0 for v in prof_a + prof_b)
    seed_gap = max(abs(a - b) for a, b in zip(prof_a, prof_b))
    ok = worst_const <= 1e-6 and monotone and in_range and seed_gap <= 0.01
    return (
        ok,
        f"constant-input gap {worst_const:.1e} (tol 1e-6); monotone {monotone}; "
        f"two-seed gap {seed_gap:.4f} (tol 0.01)",
    )


CRITERIA: List[Criterion] = [
    Criterion(1, "collision-oracle", _criterion_1),
    Criterion(2, "mixture-formula", _criterion_2),
    Criterion(3, "gaussian-profile", _criterion_3),
    Criterion(4, "upper-bounds", _criterion_4),
    Criterion(5, "fixed-step-limit", _criterion_5),
    Criterion(6, "non-monotone", _criterion_6),
    Criterion(7, "integrator", _criterion_7),
    Criterion(8, "stochastic-representations", _criterion_8),
    Criterion(9, "martingale-checks", _criterion_9),
    Criterion(10, "limit-tail", _criterion_10),
    Criterion(11, "l1-l2-bound", _criterion_11),
    Criterion(12, "profile-asymptotics", _criterion_12),
    Criterion(13, "block-lower-bound", _criterion_13),
    Criterion(14, "mixture-profile", _criterion_14),
]


def get_criterion(number: int) -> Criterion:
    for crit in CRITERIA:
        if crit.number == number:
            return crit
    raise KeyError(f"no criterion numbered {number}")


def run_all(
    seed: int = DEFAULT_SEED, printer: Optional[Callable[[str], None]] = None
) -> List[CriterionResult]:
    results = []
    for crit in CRITERIA:
        res = crit.run(seed)
        results.append(res)
        if printer is not None:
            printer(res.line)
    return results
