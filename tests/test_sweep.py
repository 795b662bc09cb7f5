"""Tests for the sweep layer: grids, rows, serialization, derived studies."""

import dataclasses
import json
import math

import numpy as np
import pytest

from adicke import (FockCutoff, ModelParams, SweepSpec, Truncation, _blas, convergence_scan,
                    families, gamma_comparison, peak_locate, qfi_omega, qgt_components,
                    ratio_scan, rows_to_csv, run_sweep, spectra, write_csv, write_json)
from adicke.effective import effective_form
from adicke.spectra import bogoliubov_modes
from adicke.squeezed import berry_curvature_np, berry_curvature_sp
from adicke.sweep import CSV_COLUMNS, SweepRow, continuity_report, evaluate_point


def small_spec(**kw):
    base = dict(model="co_np", param="g", start=0.2, stop=0.8, points=4,
                gamma=2.0, eta=1.0, j=2.0, n_max=30)
    base.update(kw)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# validation and grids


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError, match="model"):
        small_spec(model="nope").validate()
    with pytest.raises(ValueError, match="grid"):
        small_spec(points=1).validate()
    with pytest.raises(ValueError, match="spacing"):
        small_spec(spacing="cubic").validate()
    with pytest.raises(ValueError, match="positive endpoints"):
        small_spec(spacing="log", start=0.0).validate()
    with pytest.raises(ValueError, match="labels"):
        small_spec(labels=("omega",)).validate()
    with pytest.raises(ValueError, match="method"):
        small_spec(method="analytic").validate()
    with pytest.raises(ValueError, match="workers"):
        small_spec(workers=0).validate()


def test_grid_spacings():
    lin = small_spec(points=5).grid()
    assert np.allclose(lin, np.linspace(0.2, 0.8, 5))
    log = small_spec(spacing="log", start=0.1, stop=10.0, points=3).grid()
    assert np.allclose(log, [0.1, 1.0, 10.0])


def test_point_params_for_primary_sweep():
    spec = small_spec(param="theta", start=0.0, stop=1.0, g=0.5)
    p = spec.point_params(0.7)
    assert p.theta == 0.7 and p.g == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# row production


def test_decoupled_line_has_zero_tensor_columns():
    rows = run_sweep(small_spec(param="theta", start=0.0, stop=1.0, points=3, g=0.0))
    for row in rows:
        assert row.G_omega_omega == pytest.approx(0.0, abs=1e-12)
        assert row.G_theta_theta == pytest.approx(0.0, abs=1e-12)
        assert row.F_theta_omega == pytest.approx(0.0, abs=1e-12)
        assert row.I_omega_omega == pytest.approx(0.0, abs=1e-12)
        assert row.converged


def test_row_identity_qfi_equals_four_metric():
    rows = run_sweep(small_spec(points=5))
    for row in rows:
        assert row.I_omega_omega == pytest.approx(4.0 * row.G_omega_omega, abs=1e-12)


def test_auto_cs_curvature_changes_sign_across_transition():
    spec = SweepSpec(model="auto_cs", param="g", start=0.6, stop=1.4, points=5,
                     gamma=2.0, eta=1.0, j=10.0, n_max=24, n_max_b=24)
    rows = run_sweep(spec)
    below = [r for r in rows if r.g < 1.0 - 1e-9]
    above = [r for r in rows if r.g > 1.0 + 1e-9]
    assert all(r.F_theta_omega > 0 for r in below)
    assert all(r.F_theta_omega < 0 for r in above)
    assert all(r.branch == "np" for r in below)
    assert all(r.branch == "sp" for r in above)


def test_flagged_row_keeps_its_branch():
    # the README auto_cs sweep holds g = 1, where the cs_np form is gapless
    spec = SweepSpec(model="auto_cs", param="g", start=0.5, stop=1.5, points=41,
                     gamma=2.0, eta=1.0, j=10.0, n_max=40, n_max_b=40)
    row = evaluate_point(spec, 1.0)
    assert not row.converged
    assert row.branch == "np"
    assert rows_to_csv([row]).splitlines()[1].split(",")[CSV_COLUMNS.index("branch")] == "np"


def test_one_mode_swap_symmetry_in_rows():
    rows_a = run_sweep(small_spec(gamma=2.0, points=3, theta=0.3))
    rows_b = run_sweep(small_spec(gamma=0.5, points=3, theta=0.3))
    for ra, rb in zip(rows_a, rows_b):
        assert ra.I_omega_omega == pytest.approx(rb.I_omega_omega, abs=1e-8)


def test_failed_points_become_flagged_rows():
    # a superradiant builder swept through the normal phase cannot evaluate there
    spec = SweepSpec(model="cs_sp", param="g", start=0.8, stop=1.2, points=3,
                     gamma=2.0, eta=1.0, j=4.0, n_max=16, n_max_b=16)
    rows = run_sweep(spec)
    assert len(rows) == 3
    assert not rows[0].converged and math.isnan(rows[0].I_omega_omega)
    assert rows[2].converged and math.isfinite(rows[2].I_omega_omega)


@pytest.mark.parametrize("spec,method", [
    (SweepSpec(model="full", gamma=2.0, j=2.0, n_max=20), "sum"),
    (SweepSpec(model="cs_np", gamma=2.0, j=2.0, n_max=20, n_max_b=20, method="solve"),
     "solve"),
])
def test_evaluate_point_builds_and_solves_once(spec, method, monkeypatch):
    counts = {"build": 0, "solve": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(families, "hamiltonian_matrix",
                        counted("build", families.hamiltonian_matrix))
    for name in ("dense_eigensystem", "lowest_k"):
        monkeypatch.setattr(spectra, name, counted("solve", getattr(spectra, name)))
    row = evaluate_point(spec, 0.7)
    assert row.converged and row.method == method
    assert counts == {"build": 1, "solve": 1}


def test_solve_points_above_the_limit_factor_once_without_sa(monkeypatch):
    # the one eigensolve is shift-invert Lanczos on the one factor, never a
    # smallest-algebraic ("SA") iteration on H itself
    calls = {"factor": 0, "which": []}
    factor, lanczos = _blas.pbtrf, spectra._lanczos

    def counted_factor(*args, **kwargs):
        calls["factor"] += 1
        return factor(*args, **kwargs)

    def recorded_lanczos(*args, **kwargs):
        calls["which"].append("LM")  # the largest nu of (H - sigma)^-1
        return lanczos(*args, **kwargs)

    monkeypatch.setattr(_blas, "pbtrf", counted_factor)
    monkeypatch.setattr(spectra, "_lanczos", recorded_lanczos)
    p = ModelParams.from_ratios(0.9, gamma=2.0, eta=1.0, j=5.0)
    trunc = Truncation.for_spin(60, p.j, "positive")
    assert families.hamiltonian_matrix("full", p, trunc).shape[0] > spectra.DENSE_SOLVE_LIMIT
    comp = qgt_components("full", p, trunc, labels=("theta", "omega"))
    assert comp.method == "linear_solve"
    assert calls == {"factor": 1, "which": ["LM"]}
    calls.update(factor=0, which=[])
    spec = SweepSpec(model="cs_np", gamma=2.0, j=2.0, n_max=20, n_max_b=20, method="solve")
    row = evaluate_point(spec, 0.7)
    assert row.converged and row.method == "solve"
    assert calls == {"factor": 1, "which": ["LM"]}


def test_perturbed_eigenpair_becomes_flagged_row(monkeypatch):
    spec = small_spec(method="sum")
    assert evaluate_point(spec, 0.5).converged
    solve = spectra.dense_eigensystem

    def perturbed(op, *args, **kwargs):
        es = solve(op, *args, **kwargs)
        states = es.states.copy()
        states[:, 0] += 1e-3 * states[:, 1]
        states[:, 0] /= np.linalg.norm(states[:, 0])
        return dataclasses.replace(es, states=states)

    monkeypatch.setattr(spectra, "dense_eigensystem", perturbed)
    row = evaluate_point(spec, 0.5)
    assert not row.converged and math.isnan(row.I_omega_omega)


def test_default_effective_point_builds_and_solves_nothing(monkeypatch):
    calls = []

    def refused(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return wrapper

    monkeypatch.setattr(families, "hamiltonian_matrix", refused("hamiltonian_matrix"))
    for name in ("dense_eigensystem", "lowest_k"):
        monkeypatch.setattr(spectra, name, refused(name))
    for model, value in (("cs_np", 0.7), ("auto_cs", 1.3), ("co_np", 0.7), ("auto_co", 1.3)):
        spec = SweepSpec(model=model, gamma=2.0, j=2.0, n_max=20, n_max_b=20)
        row = evaluate_point(spec, value)
        assert row.converged and row.method == "gaussian" and row.n_max == 20
    assert calls == []


def test_critical_point_of_the_readme_sweep_is_flagged():
    # the README auto_cs grid holds g = 1 itself, where the form is gapless
    spec = SweepSpec(model="auto_cs", start=0.5, stop=1.5, points=41, gamma=2.0, eta=1.0,
                     j=10.0, n_max=40, n_max_b=40)
    critical = float(spec.grid()[20])
    assert critical == 1.0
    row = evaluate_point(spec, critical)
    assert not row.converged and row.method == "gaussian"
    assert math.isnan(row.I_omega_omega) and math.isnan(row.energy)
    assert evaluate_point(spec, float(spec.grid()[19])).converged


def test_perturbed_transform_becomes_flagged_row(monkeypatch):
    spec = small_spec()
    assert evaluate_point(spec, 0.5).converged
    transform = spectra.symplectic_transform

    def perturbed(form):
        eps, t = transform(form)
        t = t.copy()
        t[:, 0] += 1e-3 * t[:, 1]
        return eps, t

    monkeypatch.setattr(spectra, "symplectic_transform", perturbed)
    row = evaluate_point(spec, 0.5)
    assert not row.converged and math.isnan(row.I_omega_omega)


def test_fd_exclusion_zone_flags_rows():
    spec = small_spec(method="fd", start=0.999, stop=1.004, points=2, n_max=40)
    rows = [evaluate_point(spec, 0.9995), evaluate_point(spec, 0.95)]
    assert not rows[0].converged
    assert rows[1].converged


@pytest.mark.parametrize("start,stop,curvature", [
    (0.3, 0.99, berry_curvature_np),
    (1.01, 3.0, lambda g, omega: berry_curvature_sp(g, omega, first_term_only=True)),
], ids=["normal", "superradiant"])
def test_auto_co_gaussian_rows_match_the_closed_form_curvature(start, stop, curvature):
    # at gamma = 1 the one-mode limit is a pure squeezed state, whose Berry
    # curvature the closed forms of adicke.squeezed give without a displacement
    spec = SweepSpec(model="auto_co", param="g", start=start, stop=stop, points=8,
                     gamma=1.0, theta=0.3, j=2.0)
    rows = run_sweep(spec)
    for row in rows:
        assert row.method == "gaussian" and row.converged
        assert row.F_theta_omega == pytest.approx(curvature(row.g, 1.0), rel=1e-10)


def test_continuity_report_mentions_both_sides():
    spec = SweepSpec(model="auto_co", param="g", start=0.9, stop=1.1, points=3,
                     gamma=1.0, j=2.0, n_max=30)
    text = continuity_report(spec)
    assert "E(1-1e-06)" in text and "E(1+1e-06)" in text


# ---------------------------------------------------------------------------
# determinism and serialization


def test_csv_fixed_header_and_format():
    rows = run_sweep(small_spec(points=2))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == format(rows[0].g, ".17e")
    assert first[CSV_COLUMNS.index("converged")] == "true"


def test_parallel_serial_equivalence():
    spec = small_spec(points=6, workers=3)
    parallel = rows_to_csv(run_sweep(spec))
    serial = rows_to_csv(run_sweep(dataclasses.replace(spec, workers=1)))
    assert parallel == serial


@pytest.mark.parametrize("n_max,method", [(30, "sum"), (60, "solve")])
def test_matrix_route_bytes_do_not_depend_on_workers(n_max, method):
    # j = 5 puts the sector dimension below DENSE_SOLVE_LIMIT at n_max 30 and
    # above it at 60: the routes whose sums run through BLAS
    spec = SweepSpec(model="full", param="g", start=0.5, stop=0.9, points=4, gamma=2.0,
                     eta=1.0, j=5.0, n_max=n_max, workers=2)
    parallel = run_sweep(spec)
    assert all(row.converged and row.method == method for row in parallel)
    assert rows_to_csv(parallel) == rows_to_csv(run_sweep(dataclasses.replace(spec, workers=1)))


def test_rerun_is_byte_identical(tmp_path):
    spec = small_spec(points=4)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_csv(run_sweep(spec), str(path_a))
    write_csv(run_sweep(spec), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_json_round_trip(tmp_path):
    rows = run_sweep(small_spec(points=3))
    path = tmp_path / "rows.json"
    write_json(rows, str(path))
    loaded = json.loads(path.read_text())
    assert len(loaded) == 3
    assert list(loaded[0].keys()) == list(CSV_COLUMNS)
    assert loaded[1]["I_omega_omega"] == pytest.approx(rows[1].I_omega_omega, rel=1e-15)


# ---------------------------------------------------------------------------
# derived studies


def _independent_dicke_qfi(lam, j, n_max):
    """QFI of omega for the symmetric-coupling model, built from scratch."""
    import numpy as np
    sdim = int(2 * j) + 1
    dim = (n_max + 1) * sdim
    a = np.zeros((n_max + 1, n_max + 1))
    a[np.arange(n_max), np.arange(1, n_max + 1)] = np.sqrt(np.arange(1, n_max + 1))
    m = -j + np.arange(sdim)
    jz = np.diag(m)
    jp = np.zeros((sdim, sdim))
    jp[np.arange(1, sdim), np.arange(sdim - 1)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    eye_b, eye_s = np.eye(n_max + 1), np.eye(sdim)
    num = np.kron(a.T @ a, eye_s)
    ham = (num + np.kron(eye_b, jz)
           + (lam / math.sqrt(2 * j)) * np.kron(a + a.T, jp + jp.T))
    energies, states = np.linalg.eigh(ham)
    coeffs = states.conj().T @ (num @ states[:, 0])
    weights = np.zeros(dim)
    weights[1:] = 1.0 / (energies[1:] - energies[0]) ** 2
    return 4 * float(np.sum(np.abs(coeffs) ** 2 * weights))


def test_gamma_comparison_symmetric_limit_and_reduction_oracle():
    gammas = [1 / 3, 0.5, 1.0, 2.0, 3.0]
    result = gamma_comparison(0.9, gammas, "co_np", j=2.0, n_max=40)
    assert result.reciprocal_asymmetry < 1e-8
    full = gamma_comparison(0.9, [1.0], "full", j=2.0, n_max=24, sector="full")
    lam = 0.9 / 2  # symmetric couplings at g = 0.9 on resonance
    oracle = _independent_dicke_qfi(lam, 2.0, 24)
    assert full.entries[0][1] == pytest.approx(oracle, rel=1e-9)


def test_gamma_comparison_effective_model_is_exact():
    # with no method the effective values carry no cutoff: a truncated cs_np
    # ladder at n_max = 40 read 7691, 11857, 21088 here, increasing
    gammas = [1 / 3, 1.0, 3.0]
    result = gamma_comparison(0.999, gammas, "cs_np", j=10.0)
    exact = [31212.439656923765, 31189.981237051707, 31126.66717414357]
    for (gamma, value), want in zip(result.entries, exact):
        p = ModelParams.from_ratios(0.999, gamma=gamma, j=10.0)
        assert value == pytest.approx(want, rel=1e-9)
        assert value == pytest.approx(qfi_omega("cs_np", p), rel=1e-9)
    assert not result.strictly_increasing
    # an explicit method keeps the cutoff
    truncated = gamma_comparison(0.999, gammas, "cs_np", j=10.0, method="sum", n_max=12)
    assert truncated.entries[0][1] == pytest.approx(
        qfi_omega("cs_np", ModelParams.from_ratios(0.999, gamma=1 / 3, j=10.0),
                  FockCutoff(12, 12), method="sum"), rel=1e-12)


def test_gamma_comparison_full_model_monotone():
    result = gamma_comparison(0.99, [0.5, 1.0, 2.0], "full", j=5.0, n_max=40,
                              method="solve")
    assert result.strictly_increasing


def test_gamma_comparison_flags_a_failed_point_instead_of_raising():
    # co_np has no Gaussian ground state above g = 1: each entry is NaN and
    # flagged, and the summaries, which cover the finite entries only, are
    # undefined over none
    result = gamma_comparison(1.2, [1.0, 2.0], "co_np", j=10.0)
    assert [gamma for gamma, _ in result.entries] == [1.0, 2.0]
    assert all(math.isnan(value) for _, value in result.entries)
    assert result.strictly_increasing is None and math.isnan(result.reciprocal_asymmetry)
    fd = gamma_comparison(0.9, [0.5, 2.0, 3.0], "full", j=2.0, n_max=20, method="fd",
                          theta=0.3)
    assert all(value > 0 for _, value in fd.entries)
    with pytest.raises(ValueError, match="gamma"):
        gamma_comparison(0.9, [1.0, 0.0], "co_np", j=2.0)
    with pytest.raises(ValueError, match="model"):
        gamma_comparison(0.9, [1.0], "bogus")


def test_gamma_comparison_entries_are_the_sweep_rows():
    for model, method in (("co_np", None), ("cs_np", None), ("full", None), ("co_np", "sum")):
        result = gamma_comparison(0.9, [0.5, 2.0], model, j=2.0, n_max=20, method=method)
        for gamma, value in result.entries:
            spec = SweepSpec(model=model, gamma=gamma, j=2.0, n_max=20, method=method)
            assert value == evaluate_point(spec, 0.9).I_omega_omega


def test_ratio_scan_refuses_a_gapless_effective_form():
    # at g = 1 the co_np form is stable with gap 0; a truncated value there is
    # a cutoff artefact (5.80e4 at eff_n_max = 60), so the row gets no ratio
    p = ModelParams.from_ratios(1.0, gamma=1.0, eta=2.0, j=5.0)
    modes = bogoliubov_modes(effective_form("co_np", p))
    assert modes.stable and modes.gap == 0.0
    row, = ratio_scan([5.0], [1.0], [2.0], 1.0, n_max=30, check_step=10, eff_n_max=20)
    assert math.isfinite(row.qfi_lab) and row.qfi_lab > 0
    assert math.isnan(row.qfi_eff) and math.isnan(row.ratio) and not row.converged


def test_ratio_scan_trends_small():
    rows = ratio_scan([5.0], [1.0], [2.0, 5.0], 0.95, n_max=40, eff_n_max=40)
    assert len(rows) == 2
    assert all(r.converged for r in rows)
    assert 0 < rows[0].ratio < rows[1].ratio < 1


def test_ratio_scan_effective_value_follows_eta():
    # the classical-spin limit depends on eta, so every row needs its own value
    rows = ratio_scan([10.0], [2.0], [2.0, 5.0], 0.9, n_max=20, eff_model="cs_np",
                      eff_n_max=30)
    for row in rows:
        p = ModelParams.from_ratios(0.9, gamma=2.0, eta=row.eta, j=10.0)
        assert row.qfi_eff == pytest.approx(qfi_omega("cs_np", p, FockCutoff(30, 30)),
                                            rel=1e-12)


def test_ratio_scan_zero_effective_value_flags_row():
    # at g = 0 both models are decoupled and the effective value is exactly zero
    rows = ratio_scan([2.0], [1.0], [2.0], 0.0, n_max=20, check_step=10, eff_n_max=20)
    assert len(rows) == 1
    row = rows[0]
    assert row.qfi_eff == 0.0 and abs(row.qfi_lab) < 1e-20
    assert math.isnan(row.ratio) and not row.converged


def test_ratio_scan_flags_rows_above_the_transition():
    # co_np has no stable ground state at g > 1: its value would depend on the cutoff
    p = ModelParams.from_ratios(1.2, gamma=1.0, eta=2.0, j=5.0)
    assert not bogoliubov_modes(effective_form("co_np", p)).stable
    assert qfi_omega("co_np", p, FockCutoff(20)) != pytest.approx(
        qfi_omega("co_np", p, FockCutoff(40)), rel=1e-2)
    row, = ratio_scan([5.0], [1.0], [2.0], 1.2, n_max=30, check_step=10, eff_n_max=20)
    assert math.isfinite(row.qfi_lab) and row.qfi_lab > 0
    assert math.isnan(row.qfi_eff) and math.isnan(row.ratio) and not row.converged
    # a stable superradiant form still omits the mean-field term: flagged, not NaN
    row, = ratio_scan([5.0], [1.0], [2.0], 1.2, n_max=30, check_step=10, eff_model="co_sp",
                      eff_n_max=20)
    assert math.isfinite(row.qfi_eff) and math.isfinite(row.ratio) and not row.converged


def test_ratio_of_identical_quantities_is_one():
    rows = ratio_scan([2.0], [1.0], [3.0], 0.9, n_max=40, eff_n_max=40)
    row = rows[0]
    assert row.qfi_lab / row.qfi_lab == 1.0
    assert row.ratio == pytest.approx(row.qfi_lab / row.qfi_eff, rel=1e-15)


def test_peak_locate_exact_parabola():
    rows = [SweepRow(g=g, gamma=1, eta=1, j=1, n_max=10, model="x", method="sum",
                     I_omega_omega=-(g - 0.93) ** 2) for g in np.linspace(0.8, 1.1, 7)]
    assert peak_locate(rows) == pytest.approx(0.93, abs=1e-12)


def test_peak_locate_edge_error():
    rows = [SweepRow(g=g, gamma=1, eta=1, j=1, n_max=10, model="x", method="sum",
                     I_omega_omega=g) for g in np.linspace(0.5, 0.9, 5)]
    with pytest.raises(ValueError, match="widen"):
        peak_locate(rows)


def test_peak_localizes_critical_coupling_within_grid_resolution():
    # shrinking the window around the divergence tightens the located peak
    for width in (0.1, 0.02):
        spec = SweepSpec(model="auto_cs", param="g", start=1 - width, stop=1 + width,
                         points=9, gamma=1.0, eta=1.0, j=4.0,
                         n_max=24, n_max_b=24, method="sum")
        spacing = 2 * width / 8
        assert abs(peak_locate(run_sweep(spec)) - 1.0) < spacing


def test_convergence_scan_decoupled_and_moderate():
    for model in ("full", "cs_np"):
        spec = SweepSpec(model=model, param="g", start=0.0, stop=0.5, points=2,
                         gamma=1.0, eta=1.0, j=10.0, n_max=30)
        points = convergence_scan(spec, [20, 30])
        assert points[0].converged and points[0].converged_at == 30  # decoupled line
        assert points[1].converged  # g = 0.5 settles by n_max = 30


def test_convergence_scan_near_critical_needs_more():
    spec = SweepSpec(model="full", param="g", start=0.99, stop=0.99, points=2,
                     gamma=2.0, eta=1.0, j=10.0, n_max=30, method="solve")
    points = convergence_scan(spec, [10, 20, 60, 100])
    for pt in points:
        assert pt.rel_changes[0] > 1e-4  # tiny cutoffs are not converged
        assert pt.converged and pt.converged_at <= 100


def test_ratio_scan_solves_each_cutoff_of_each_j_as_one_stack(monkeypatch):
    # the criterion 09 inputs: 2 j x 2 cutoffs stacks of 8 full-model points,
    # and 4 distinct co_np forms (the form depends on g, gamma and omega only,
    # apart from its constant, and n_a rounds differently at eta = 2)
    calls = {"_lanczos": 0, "dense_eigensystem": 0}

    def counted(name):
        func = getattr(spectra, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(spectra, name, counted(name))
    rows = ratio_scan((5, 10), (1, 2), (2, 5, 10, 20), 0.99)
    assert calls == {"_lanczos": 4, "dense_eigensystem": 4}
    assert len(rows) == 16 and all(row.converged for row in rows)
    monkeypatch.undo()
    for row in rows[::5]:
        p = ModelParams.from_ratios(0.99, gamma=row.gamma, eta=row.eta, j=row.j)
        alone = qfi_omega("full", p, Truncation.for_spin(80, row.j), method="solve")
        assert row.qfi_lab == pytest.approx(alone, rel=1e-12)
        assert row.qfi_eff == pytest.approx(qfi_omega("co_np", p, FockCutoff(60)), rel=1e-11)
