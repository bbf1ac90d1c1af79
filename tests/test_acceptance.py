"""End-to-end acceptance criteria for the operator engine.

Each test records a PASS/FAIL verdict in the registry printed after the
run (one line per criterion), then asserts.  Criteria cover: exactness of
the regularizer identity, Fourier inversion, independence of the
regularizer power, integrand decay rates, transport / wave / half-wave
solutions against independent oracles, operator continuity under phase
and amplitude perturbations, Monte Carlo consistency with the closed-form
expectation, phase-jet scaling bounds, and byte-level determinism.
"""

import json
import math

import numpy as np

import _acceptance
from _references import (
    characteristics_rk45,
    halfwave_gaussian_reference,
    identity_residual,
    point_table,
)
from stochfio.applications import (
    eikonal_phi,
    halfwave_solve,
    make_speed,
    transport_phase,
    transport_solve,
    wave_solve,
)
from stochfio.cli import main as cli_main
from stochfio.io import strip_timing
from stochfio.jets import Coords, IndexSet, builtin_map
from stochfio.oscillatory import FioOperator, GridField, QuadratureConfig
from stochfio.regularizer import (
    CutoffChi,
    _regularized_tables,
    check_coefficient_symbol_bounds,
    coefficient_tables,
    select_kappa,
)
from stochfio.stochastic import (
    TruncatedSpeedModel,
    expected_wave_analytic,
    mc_wave_estimate,
)
from stochfio.symbol_spaces import Amplitude, PhaseFunction, seminorm_pi

GAUSS = builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)
CONST1 = builtin_map("constant", value=1.0, layout=(1, 1, 1))
CHI = CutoffChi()


def _run(number: int, title: str, body) -> None:
    """Record the verdict even if the computation itself errors out."""
    try:
        passed, detail = body()
    except BaseException as exc:
        _acceptance.record(number, title, False,
                           f"errored: {type(exc).__name__}: {exc}")
        raise
    _acceptance.conclude(number, title, passed, detail)


def trig_speed():
    # c(x) = 1 + 0.5 sin x
    return make_speed("trig_field", offset=1.0,
                      terms=[(0.5, 1.0, -math.pi / 2.0)])


def trig_c(x):
    return 1.0 + 0.5 * np.sin(x)


def perturbed_translation_phase():
    # (1 + 0.2 cos x) (x - y) xi: x-modulated, still 1-homogeneous in xi
    return builtin_map("product", factors=[
        builtin_map("trig_polynomial", block="x", offset=1.0,
                    terms=[(0.2, 1.0, 0.0)]),
        builtin_map("linear_phase"),
    ])


def phase_families():
    return {
        "linear": builtin_map("linear_phase"),
        "scaled_norm": builtin_map("scaled_norm_phase", speed=make_speed(
            "trig_field", offset=1.0, terms=[(0.3, 1.0, 0.0)]), t=0.3),
        "transport": transport_phase(trig_speed(), 0.3).map,
        "product": perturbed_translation_phase(),
    }


# ---------------------------------------------------------------------------
# 1. the regularizer coefficients satisfy their defining identity


def test_criterion_01_regularizer_identity_at_random_points():
    def body():
        rng = np.random.default_rng(20260814)
        n_pts = 10_000
        worst = 0.0
        for name, m in phase_families().items():
            layout = m.layout
            x = rng.uniform(-2.0, 2.0, n_pts) if layout.n_x else None
            y = rng.uniform(-2.0, 2.0, n_pts) if layout.n_y else None
            mag = np.exp(rng.uniform(np.log(0.05), np.log(64.0), n_pts))
            sign = np.where(rng.random(n_pts) < 0.5, -1.0, 1.0)
            coords = Coords(x, y, sign * mag)
            iset = IndexSet(layout, 0, 0)
            phase_t = m.table(coords, IndexSet(layout, 0, 1))
            ct = coefficient_tables(phase_t, coords, CHI, iset)
            resid = np.broadcast_to(identity_residual(phase_t, ct), (n_pts,))
            residual = float(np.max(np.abs(resid)))
            worst = max(worst, residual)
        return worst < 1e-12, f"max residual {worst:.2e} over 4 families x 10^4 points"

    _run(1, "regularizer identity exact at random points", body)


# ---------------------------------------------------------------------------
# 2. the identity-phase operator inverts the Fourier transform


def test_criterion_02_identity_operator_reproduces_test_functions():
    def body():
        xs = np.linspace(-1.5, 1.5, 33)
        op = FioOperator.build(PhaseFunction(builtin_map("linear_phase")),
                               Amplitude(CONST1),
                               config=QuadratureConfig(xi_radius=40.0))
        cases = [
            (GAUSS, np.exp(-xs ** 2)),
            (builtin_map("gaussian_bump", block="y", center=0.3, width=0.7),
             np.exp(-((xs - 0.3) / 0.7) ** 2)),
            (builtin_map("product", factors=[
                builtin_map("gaussian_bump", block="y", width=1.2),
                builtin_map("trig_polynomial", block="y", terms=[(1.0, 2.0, 0.5)]),
            ]), np.exp(-(xs / 1.2) ** 2) * np.cos(2.0 * xs + 0.5)),
        ]
        errs = [float(np.max(np.abs(op.apply(u, xs).value - exact)))
                for u, exact in cases]
        worst = max(errs)
        ok = op.plan.kappa == 2 and worst < 1e-6
        return ok, f"kappa={op.plan.kappa}, sup errors {[f'{e:.1e}' for e in errs]}"

    _run(2, "identity-phase operator inverts the transform", body)


# ---------------------------------------------------------------------------
# 3. results do not depend on the chosen regularizer power


def test_criterion_03_results_independent_of_regularizer_power():
    def body():
        xs = np.linspace(-1.0, 1.0, 21)
        qc = QuadratureConfig(xi_radius=30.0)
        tol = 2.0 * qc.abs_tol
        details = []
        ok = True
        for label, phase in [
            ("identity", PhaseFunction(builtin_map("linear_phase"))),
            ("transport", transport_phase(trig_speed(), 0.2)),
        ]:
            fields, kappas = [], []
            for extra in (0, 1, 2):
                op = FioOperator.build(phase, Amplitude(CONST1), alpha=None,
                                       extra_decay=extra, config=qc)
                kappas.append(op.plan.kappa)
                fields.append(op.apply(GAUSS, xs).value)
            gaps = [float(np.max(np.abs(a - b)))
                    for i, a in enumerate(fields) for b in fields[i + 1:]]
            ok = ok and kappas == [2, 3, 4] and max(gaps) < tol
            details.append(f"{label}: kappas {kappas}, max gap {max(gaps):.1e}")
        return ok, "; ".join(details) + f" (tol {tol:.0e})"

    _run(3, "results independent of regularizer power", body)


# ---------------------------------------------------------------------------
# 4. the regularized integrand decays at the guaranteed rate


def test_criterion_04_regularized_integrand_decay_exponents():
    def body():
        phase = PhaseFunction(builtin_map("linear_phase"))
        classes = [
            ("d=0 rho=1", builtin_map("constant", value=1.0, layout=(1, 1, 1)),
             0.0, 1.0, 0.0),
            ("d=1 rho=1", builtin_map("bracket_power", exponent=1.0),
             1.0, 1.0, 0.0),
            ("d=0 rho=1/2", builtin_map("sqrt_cos_symbol", omega=2.0),
             0.0, 0.5, 0.0),
        ]
        radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        # three (x, y) probes on both xi half-lines, one batch per radius
        x = np.full(6, 0.2)
        y = np.array([-0.7, -0.3, 0.4] * 2)
        sign = np.repeat([1.0, -1.0], 3)
        details = []
        ok = True
        for label, amap, d, rho, delta in classes:
            plan = select_kappa(d, rho, delta, 1)
            vals = []
            for radius in radii:
                g, _, iset_x = _regularized_tables(phase, amap, GAUSS, CHI, plan.kappa,
                                                   Coords(x, y, sign * radius), 0)
                vals.append(float(np.max(np.abs(g[iset_x.zero]))))
            slope = float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
            bound = d - plan.kappa * min(rho, 1.0 - delta) + 0.1
            ok = ok and slope <= bound
            details.append(f"{label}: kappa {plan.kappa}, slope {slope:+.2f} "
                           f"<= {bound:+.2f}")
        return ok, "; ".join(details)

    _run(4, "regularized integrand decay exponents", body)


# ---------------------------------------------------------------------------
# 5. the transport solution matches independently solved characteristics


def test_criterion_05_transport_matches_characteristics_oracle():
    def body():
        xs = np.linspace(-1.0, 1.0, 33)
        qc = QuadratureConfig(xi_radius=30.0)
        details = []
        ok = True
        for c_map, c_fn, label in [
            (make_speed("constant", value=1.0), lambda x: np.ones_like(x), "c=1"),
            (trig_speed(), trig_c, "c=1+0.5 sin x"),
        ]:
            for t in (0.2, 0.5):
                field = transport_solve(c_map, GAUSS, t, xs, config=qc)
                gamma = characteristics_rk45(c_fn, xs, t)
                err = float(np.max(np.abs(field.value - np.exp(-gamma ** 2))))
                ok = ok and err < 1e-3
                details.append(f"{label} t={t}: {err:.1e}")
        return ok, "; ".join(details)

    _run(5, "transport solution matches characteristics", body)


# ---------------------------------------------------------------------------
# 6. the constant-speed wave equals its two-branch closed form


def test_criterion_06_constant_speed_wave_two_branch_form():
    def body():
        xs = np.linspace(-1.0, 1.0, 33)
        field = wave_solve(make_speed("constant", value=2.0), GAUSS, 0.2, xs,
                           config=QuadratureConfig(xi_radius=30.0))
        exact = 0.5 * (np.exp(-(xs - 0.4) ** 2) + np.exp(-(xs + 0.4) ** 2))
        err = float(np.max(np.abs(field.value - exact)))
        return err < 1e-4, f"sup error {err:.1e} at c=2, t=0.2"

    _run(6, "constant-speed wave matches two-branch form", body)


# ---------------------------------------------------------------------------
# 7. half-wave parametrix against a spectral oracle; eikonal residual


def test_criterion_07_halfwave_parametrix_and_eikonal_phase():
    def body():
        xs = np.linspace(-1.0, 1.0, 21)
        field = halfwave_solve(make_speed("constant", value=1.0), GAUSS, 0.2,
                               xs, config=QuadratureConfig(xi_radius=40.0))
        # oracle applies the same truncated symbol by dense Fourier quadrature
        ref = halfwave_gaussian_reference(1.0, 0.2, xs, symbol="p")
        gap = float(np.max(np.abs(field.value - ref)))

        xr = np.linspace(-0.8, 0.8, 7)
        out = eikonal_phi(trig_speed(), xr, 0.4, 1, order=1)
        endpoint = out["flow"].F[0]
        grad = out["grad_x"]
        residual = float(np.max(np.abs(
            trig_c(endpoint) - trig_c(xr) * np.abs(grad))))

        ok = gap < 1e-2 and residual < 1e-4
        return ok, f"parametrix vs oracle {gap:.1e}; eikonal residual {residual:.1e}"

    _run(7, "half-wave parametrix and eikonal phase", body)


# ---------------------------------------------------------------------------
# 8. perturbed operators converge to the unperturbed one in seminorm


def test_criterion_08_perturbed_operators_converge_in_seminorm():
    def body():
        qc = QuadratureConfig(xi_radius=15.0)
        psi = builtin_map("scaled", factor=0.05, inner=builtin_map(
            "gaussian_bump", block="y", center=0.0, width=2.0))
        xs = np.linspace(-2.0, 2.0, 21)
        base_phase = builtin_map("linear_phase")

        def field(phase_map, amp_map):
            op = FioOperator.build(PhaseFunction(phase_map),
                                   Amplitude(amp_map), config=qc)
            return op.apply(psi, xs, out_order=2)

        ref = field(base_phase, CONST1)
        gaps = []
        for n in (4, 8, 16, 32, 64):
            phase_n = builtin_map("scaled", inner=base_phase,
                                  factor=1.0 + 1.0 / n)
            amp_n = builtin_map("sum", terms=[
                CONST1,
                builtin_map("mollifier_bump", block="xi", center=0.0, radius=3.0),
            ], coefficients=[1.0, 1.0 / n])
            f_n = field(phase_n, amp_n)
            diff = GridField(ref.points, {
                key: f_n.values[key] - ref.values[key] for key in ref.values})
            gaps.append(float(seminorm_pi(diff, 2).value))
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = decreasing and gaps[-1] < 1e-3
        return ok, (f"gaps {[f'{g:.1e}' for g in gaps]}, "
                    f"decreasing={decreasing}, final < 1e-3: {gaps[-1] < 1e-3}")

    _run(8, "perturbed operators converge in seminorm", body)


# ---------------------------------------------------------------------------
# 9. Monte Carlo means match the characteristic-function closed form


def test_criterion_09_monte_carlo_consistency():
    def body():
        model = TruncatedSpeedModel(2.0, 0.2, alpha=0.25)
        xs = np.linspace(-2.0, 2.0, 33)
        analytic = expected_wave_analytic(model, 0.3, xs)
        fractions = []
        for seed in (101, 202, 303):
            result = mc_wave_estimate(model, GAUSS, 0.3, xs, 2000,
                                      base_seed=seed)
            dev = np.abs(result.mean - analytic)
            fractions.append(float(np.mean(dev <= 3.0 * result.std_error)))

        det = TruncatedSpeedModel(2.0, 0.0)
        det_run = mc_wave_estimate(det, GAUSS, 0.3, xs, 100, base_seed=7)
        max_var = float(np.max(det_run.stats.variance))

        ok = all(f >= 0.95 for f in fractions) and max_var < 1e-14
        return ok, (f"within-3SE fractions {[f'{f:.3f}' for f in fractions]} "
                    f"(N=2000); deterministic-limit variance {max_var:.1e}")

    _run(9, "Monte Carlo mean matches closed form", body)


# ---------------------------------------------------------------------------
# 10. phase jets scale with ||xi|| as required; coefficient exponents fit


def test_criterion_10_phase_jet_scaling_and_coefficient_exponents():
    def body():
        scales = (1.0, 4.0, 16.0)
        worst = 0.0
        checked = 0
        for name, m in phase_families().items():
            layout = m.layout
            point = ((0.4,), (-0.7,), (1.0,))
            jets = [point_table(m, (point[0], point[1],
                                    tuple(s * v for v in point[2])), 3)
                    for s in scales]
            for key in jets[0]:
                l_order = sum(key[layout.n_x + layout.n_y:])
                ratios = [abs(j[key]) / s ** (1 - l_order)
                          for j, s in zip(jets, scales)]
                if max(ratios) < 1e-12:
                    continue  # entries identically zero carry no scaling information
                checked += 1
                worst = max(worst, (max(ratios) - min(ratios)) / max(ratios))

        fits = [check_coefficient_symbol_bounds(PhaseFunction(m), CHI, tol=0.10)
                for m in (builtin_map("linear_phase"),
                          perturbed_translation_phase())]
        fit_ok = all(rep.passed for rep in fits)
        max_misfit = max(rep.max_misfit for rep in fits)

        ok = worst < 1e-8 and fit_ok
        return ok, (f"jet scaling variation {worst:.1e} over {checked} series; "
                    f"exponent misfit {max_misfit:.3f} <= 0.10 "
                    f"(skipped {fits[0].skipped}+{fits[1].skipped} "
                    f"identically-zero series)")

    _run(10, "phase jet scaling and coefficient exponents", body)


# ---------------------------------------------------------------------------
# 11. byte-identical reruns, independent of the worker count


def test_criterion_11_byte_identical_runs(tmp_path):
    def body():
        apply_cfg = {
            "schema_version": 1,
            "phase": {"family": "linear_phase"},
            "amplitude": {"family": "constant", "value": 1.0,
                          "layout": [1, 1, 1]},
            "test_function": {"family": "gaussian_bump", "block": "y"},
            "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
            "quadrature": {"xi_radius": 20.0},
        }
        cfg_path = tmp_path / "apply.json"
        cfg_path.write_text(json.dumps(apply_cfg))

        csv_bytes = {}
        json_payloads = {}
        for tag, workers in (("w1a", 1), ("w1b", 1), ("w4", 4)):
            out = tmp_path / f"{tag}.csv"
            rc = cli_main(["apply", "--config", str(cfg_path), "--format",
                           "csv", "--out", str(out), "--workers", str(workers)])
            assert rc == 0
            csv_bytes[tag] = out.read_bytes()
            sidecar = json.loads((tmp_path / f"{tag}.csv.manifest.json").read_text())
            sidecar["manifest"] = strip_timing(sidecar["manifest"])
            json_payloads[tag] = json.dumps(sidecar, sort_keys=True)
        csv_ok = csv_bytes["w1a"] == csv_bytes["w1b"] == csv_bytes["w4"]
        manifest_ok = (json_payloads["w1a"] == json_payloads["w1b"]
                       == json_payloads["w4"])

        mc_same = {}
        for engine in ("translation", "fio"):
            mc_cfg = {
                "schema_version": 1,
                "model": {"c0": 2.0, "s": 0.2, "alpha": 0.25},
                "test_function": {"family": "gaussian_bump", "block": "y"},
                "time": 0.3,
                "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
                "mc": {"n_samples": 64, "engine": engine},
            }
            mc_path = tmp_path / f"mc_{engine}.json"
            mc_path.write_text(json.dumps(mc_cfg))
            mc_bytes = []
            for tag in ("a", "b"):
                out = tmp_path / f"mc_{engine}_{tag}.json"
                rc = cli_main(["mc", "--config", str(mc_path), "--seed", "7",
                               "--out", str(out)])
                assert rc == 0
                payload = json.loads(out.read_bytes())
                payload["manifest"] = strip_timing(payload["manifest"])
                mc_bytes.append(json.dumps(payload, sort_keys=True))
            mc_same[engine] = mc_bytes[0] == mc_bytes[1]
        mc_ok = all(mc_same.values())

        ok = csv_ok and manifest_ok and mc_ok
        return ok, (f"csv identical across reruns and workers 1/4: {csv_ok}; "
                    f"manifests (timing stripped): {manifest_ok}; "
                    f"mc reruns identical (timing stripped): "
                    f"translation {mc_same['translation']}, fio {mc_same['fio']}")

    _run(11, "byte-identical reruns and worker counts", body)
