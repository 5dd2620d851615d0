"""End-to-end guarantees for the shipped benchmark presets and closed forms.

One test per headline property: the adaptive mixture hugs the better
component, theory tracks Monte Carlo at stated tolerances, the closed
forms agree with independent formulations, and exports are
deterministic.  The three expensive simulations are shared through
module-scoped fixtures.
"""

import time
from collections import namedtuple

import numpy as np
import pytest

import test_theory
from diffcomb import harness
from diffcomb.graph import build_preset, static_rule, validate_stochastic
from diffcomb.theory import (
    coefficient_steady,
    covariance_step,
    initial_moments,
    mean_step,
    stability_bounds,
    universality_report,
)
from helpers import coefficient_step, stats

WINDOW_SLOW = (18000, 20000)
WINDOW_FAST = (4500, 5000)
MSD_NAMES = ("msd_network_1", "msd_network_2", "msd_combined")

Bundle = namedtuple("Bundle", "cfg sim theory report runtime")


def _run_bundle(name, tol_msd_db, window):
    cfg = harness.load_preset_config(name)
    start = time.perf_counter()
    sim = harness.run_monte_carlo(cfg)
    runtime = time.perf_counter() - start
    theory = harness.run_theory(cfg)
    report = harness.compare(sim, theory, tol_msd_db=tol_msd_db,
                             tol_gamma=0.05, windows=[window])
    return Bundle(cfg, sim, theory, report, runtime)


@pytest.fixture(scope="module")
def pn_bundle():
    return _run_bundle("universality_pn", 1.0, WINDOW_SLOW)


@pytest.fixture(scope="module")
def sr_bundle():
    return _run_bundle("universality_sr", 1.0, WINDOW_SLOW)


@pytest.fixture(scope="module")
def fast_bundle():
    return _run_bundle("universality_fast_pn", 2.0, WINDOW_FAST)


def test_steady_windows_are_the_stage_windows():
    for name, window in (("universality_pn", WINDOW_SLOW),
                         ("universality_sr", WINDOW_SLOW),
                         ("universality_fast_pn", WINDOW_FAST)):
        cfg = harness.load_preset_config(name)
        assert harness.stage_windows(cfg.horizon, cfg.schedule) == (window,)


def _window_db(series, window):
    lo, hi = window
    return 10.0 * np.log10(np.mean(series[lo:hi]))


def test_combined_network_tracks_best_component(pn_bundle, sr_bundle):
    """Steady combined network EMSE within 0.5 dB of the better component."""
    for bundle in (pn_bundle, sr_bundle):
        e1 = _window_db(bundle.sim.series["emse_network_1"], WINDOW_SLOW)
        e2 = _window_db(bundle.sim.series["emse_network_2"], WINDOW_SLOW)
        combined = _window_db(
            bundle.sim.series["emse_network_combined"], WINDOW_SLOW)
        scheme = bundle.cfg.combiner.scheme
        assert combined <= min(e1, e2) + 0.5, \
            f"{scheme}: combined {combined:.3f} dB vs best {min(e1, e2):.3f}"
        assert bundle.runtime < 120.0, \
            f"{scheme}: simulation took {bundle.runtime:.1f}s"


def test_steady_msd_matches_monte_carlo_at_both_step_sizes(
        pn_bundle, sr_bundle, fast_bundle):
    """Component and combined MSD predictions within 1 dB (slow adaptation)
    and 2 dB (fast adaptation) of simulation."""
    for bundle, tol in ((pn_bundle, 1.0), (sr_bundle, 1.0),
                        (fast_bundle, 2.0)):
        entries = {e.name: e for e in bundle.report.entries}
        for name in MSD_NAMES:
            dev = entries[name].steady_abs_dev
            assert np.isfinite(dev) and dev <= tol, \
                f"{bundle.cfg.source['label']}: {name} deviates {dev:.3f} dB"


def test_mixing_coefficient_moments_match_predictions(pn_bundle, sr_bundle):
    """Per-agent first and second coefficient moments within 0.05 of the
    recursion predictions for both adaptation schemes."""
    for bundle in (pn_bundle, sr_bundle):
        gamma_entries = [e for e in bundle.report.entries
                         if harness.series_units(e.name) == "linear"]
        assert len(gamma_entries) == 2 * bundle.cfg.n_agents
        for entry in gamma_entries:
            assert np.isfinite(entry.steady_abs_dev) \
                and entry.steady_abs_dev <= 0.05, \
                f"{bundle.cfg.source['label']}: {entry.name} " \
                f"deviates {entry.steady_abs_dev:.4f}"


def test_moment_recursions_consistent_across_formulations():
    """Matrix covariance recursions agree with the vectorized weighted-norm
    route over 100 steps, and the steady solves with long iteration."""
    pair, dense = test_theory.random_pair_dense(41, n=3, l=1)
    rng = np.random.default_rng(541)
    dim = pair.w_star.size
    a = rng.normal(size=(dim, dim))
    sigma = a @ a.T + 0.5 * np.eye(dim)
    steps = 100

    def raw_moments(m, p):
        return test_theory.model_moments(pair, m, p)

    def errors(m):
        return test_theory.agent_errors(pair, m)

    start = initial_moments(pair)
    m, p = start.m, start.p
    xi_mat = np.empty((3, steps + 1))
    for t in range(steps + 1):
        xi_mat[:, t] = [np.sum(sigma * om)
                        for om in raw_moments(errors(m), p)]
        p = covariance_step(pair, p)
        m = mean_step(pair, m)
    for k in range(2):
        xi_vec = test_theory.weighted_norm_curve(dense, k, sigma, steps)
        np.testing.assert_allclose(xi_mat[k], xi_vec, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(xi_vec)))
    xi_vec = test_theory.cross_norm_curve(dense, sigma, steps)
    np.testing.assert_allclose(xi_mat[2], xi_vec, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(xi_vec)))

    report = test_theory.steady_report(pair, test_theory.pn_cfg())
    m, p = start.m, start.p
    for _ in range(100_000):
        p = covariance_step(pair, p)
        m = mean_step(pair, m)
    for got, want in zip(raw_moments(errors(m), p),
                         raw_moments(errors(report.m), report.p)):
        np.testing.assert_allclose(got, want, rtol=1e-8,
                                   atol=1e-10 * np.max(np.abs(want)))


def test_optimal_coefficient_against_grid_and_closed_forms():
    """The stationary mean coefficient beats a 1e-3 grid search, the
    stationary combined error equals the quadratic surface at it, and the
    scalar steady MSD matches its textbook value."""
    rng = np.random.default_rng(77)
    grid = np.linspace(-3.0, 4.0, 7001)
    cfg = test_theory.pn_cfg()
    checked = 0
    while checked < 200:
        j1 = rng.uniform(0.2, 3.0)
        j2 = rng.uniform(0.2, 3.0)
        j12 = rng.uniform(-0.9, 0.9) * np.sqrt(j1 * j2)
        gopt = coefficient_steady(cfg, j1 - j12, j2 - j12, j2, 0.0)[0]
        if abs(gopt) > 2.5:
            continue
        surface = grid ** 2 * j1 + (1.0 - grid) ** 2 * j2 \
            + 2.0 * grid * (1.0 - grid) * j12
        assert abs(gopt - grid[np.argmin(surface)]) <= 1e-3
        checked += 1

    j1 = rng.uniform(0.1, 4.0, size=1000)
    j2 = rng.uniform(0.1, 4.0, size=1000)
    j12 = rng.uniform(-0.95, 0.95, size=1000) * np.sqrt(j1 * j2)
    gopt = coefficient_steady(cfg, j1 - j12, j2 - j12, j2, 0.0)[0]
    at_opt = gopt ** 2 * j1 + (1.0 - gopt) ** 2 * j2 \
        + 2.0 * gopt * (1.0 - gopt) * j12
    report = universality_report(j1, j2, j12, j1 - j12, j2 - j12)
    np.testing.assert_allclose(report.emse_combined, at_opt, rtol=1e-12)

    scalar = test_theory.steady_report(test_theory.scalar_model(),
                                       test_theory.pn_cfg())
    assert scalar.msd[0] == pytest.approx(0.01 * 0.1 / (2.0 - 0.01 * 1.0),
                                        rel=1e-12)


def test_frozen_moment_iteration_reaches_steady_forms():
    """Iterating the coefficient-moment maps with frozen component errors
    lands on the closed-form limits for 100 random setups."""
    rng = np.random.default_rng(2026)
    size = 50

    dj1 = rng.uniform(0.05, 1.0, size=size)
    dj2 = rng.uniform(0.05, 1.0, size=size)
    j2 = dj2 + rng.uniform(0.0, 0.5, size=size)
    sz = rng.uniform(0.01, 0.5, size=size)
    nu = rng.uniform(0.3, 0.9, size=size) * (1.0 - 0.95) / 3.0
    cfg = test_theory.pn_cfg(nu=nu)
    gbar = np.full(size, 0.5)
    g2bar = np.full(size, 0.25)
    pbar = np.zeros(size)
    for _ in range(80_000):
        g_next, m_next, p_next = coefficient_step(cfg, gbar, g2bar, pbar,
                                                  dj1, dj2, j2, sz)
        done = (np.max(np.abs(g_next - gbar)) < 1e-15
                and np.max(np.abs(m_next - g2bar)) < 1e-15
                and np.max(np.abs(p_next - pbar)) < 1e-15)
        gbar, g2bar, pbar = g_next, m_next, p_next
        if done:
            break
    ref_g, ref_m, ref_p = coefficient_steady(cfg, dj1, dj2, j2, sz)
    np.testing.assert_allclose(gbar, ref_g, rtol=1e-6)
    np.testing.assert_allclose(g2bar, ref_m, rtol=1e-6)
    np.testing.assert_allclose(pbar, ref_p, rtol=1e-6)

    dj1 = rng.uniform(0.05, 1.0, size=size)
    dj2 = rng.uniform(0.05, 1.0, size=size)
    j2 = dj2 + rng.uniform(0.0, 0.5, size=size)
    sz = rng.uniform(0.01, 0.5, size=size)
    nu = rng.uniform(0.3, 0.8, size=size) \
        * np.sqrt(2.0 / (np.pi * (dj1 + dj2)))
    cfg = test_theory.sr_cfg(nu=nu)
    gbar = np.full(size, 0.5)
    g2bar = np.full(size, 0.25)
    pbar = np.zeros(size)
    for _ in range(80_000):
        g_next, m_next, pbar = coefficient_step(cfg, gbar, g2bar, pbar,
                                                dj1, dj2, j2, sz)
        done = (np.max(np.abs(g_next - gbar)) < 1e-15
                and np.max(np.abs(m_next - g2bar)) < 1e-15)
        gbar, g2bar = g_next, m_next
        if done:
            break
    ref_g, ref_m, ref_p = coefficient_steady(cfg, dj1, dj2, j2, sz)
    np.testing.assert_allclose(gbar, ref_g, rtol=1e-6)
    np.testing.assert_allclose(g2bar, ref_m, rtol=1e-6)
    np.testing.assert_array_equal(ref_p, 0.0)


def test_stability_bounds_on_hand_cases():
    """Coefficient and component step-size limits on directly computable
    cases, including the open-interval behavior at the limit itself."""
    pair = test_theory.scalar_model(mu=(1.0, 0.5), sx=2.0)
    report = stability_bounds(pair, test_theory.pn_cfg(nu=0.01, eta=0.95),
                              [1.0])
    np.testing.assert_array_equal(report.nu_mean_bound, [1.0 - 0.95])
    np.testing.assert_array_equal(report.nu_ms_bound, [(1.0 - 0.95) / 3.0])
    assert report.nu_mean_ok.all() and report.nu_ms_ok.all()

    np.testing.assert_array_equal(report.mu_bound, [[1.0], [1.0]])
    assert not report.mu_ok[0].any()
    assert report.mu_ok[1].all()
    wide = stability_bounds(test_theory.scalar_model(mu=(0.1, 0.2), sx=0.5),
                            test_theory.pn_cfg(), [1.0])
    np.testing.assert_array_equal(wide.mu_bound[0], [4.0])

    report = stability_bounds(pair, test_theory.sr_cfg(nu=0.5), [np.pi / 2.0])
    np.testing.assert_array_equal(report.nu_mean_bound, [1.0])
    np.testing.assert_array_equal(
        report.nu_ms_bound, [np.sqrt(2.0 / (np.pi * (np.pi / 2.0)))])
    assert report.nu_mean_ok.all() and report.nu_ms_ok.all()
    at_limit = stability_bounds(pair, test_theory.sr_cfg(nu=1.0),
                                [np.pi / 2.0])
    assert not at_limit.nu_mean_ok.any()


def test_bundled_networks_and_combination_rules_are_well_formed():
    """Shipped topologies reproduce their summary statistics and every
    bundled combination matrix is stochastic to 1e-12."""
    net1 = stats(build_preset("net1"))
    assert net1.size == 10
    assert net1.density == 0.44
    assert abs(net1.lambda2 - 0.7962) <= 1e-3
    assert net1.diameter == 3
    assert stats(build_preset("net3")).diameter == 13

    for name in ("net1", "net2", "net3"):
        topo = build_preset(name)
        rules = ["identity", "averaging", "metropolis"]
        if topo.clusters is not None:
            rules.append("uniform_in_cluster")
        for rule in rules:
            defect = validate_stochastic(static_rule(topo, rule), topo)
            assert defect is None, (name, rule, defect)

    for preset in harness.preset_names():
        cfg = harness.load_preset_config(preset)
        for component in cfg.components:
            for matrix in (component.a1, component.c, component.a2):
                if matrix is None:
                    continue
                defect = validate_stochastic(matrix, cfg.topology)
                assert defect is None, (preset, matrix.role, defect)


def test_exports_identical_across_worker_counts(pn_bundle, tmp_path):
    """Re-running the same preset with a different worker count produces a
    byte-identical CSV export."""
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    harness.export(pn_bundle.sim, first)
    rerun = harness.run_monte_carlo(pn_bundle.cfg, workers=3)
    harness.export(rerun, second)
    assert first.read_bytes() == second.read_bytes()
