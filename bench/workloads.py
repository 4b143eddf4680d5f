"""The benchmark's four workloads: seeded inputs, one task at a time, checks.

Each workload builds its inputs in `__init__` from a seed (this is the timed
set-up), then runs tasks through `task(i)`. A task returns None when every
check holds and a one-line reason when one does not; it never raises for a
failed check. Task kinds rotate with `i`, and the runner only stops at the end
of a whole round of kinds, so every run holds each kind equally often.

Library functions are always reached through their module (`moyal.evolve`, not a
bare `evolve` imported here), so the tracer's rebinding of module attributes
sees every call the benchmark makes.
"""

import json
import os
import shutil
import tempfile

import numpy as np

import wignerlab
from wignerlab import cli, config, feedback, hilbert, lattice, moyal, \
    serialize, states, weyl, wigner
from wignerlab.tolerances import DEFAULT_TOL, TolerancePolicy

# bounds the repository's own checks use (tests/test_acceptance.py,
# tests/test_feedback.py, wignerlab.tolerances)
HARMONIC_BOUND = 1e-4       # criterion 07a
QUARTIC_BOUND = 1e-3        # criterion 07d
ETA_BOUND = 1e-4
SQUARE_BOUND = 1e-8         # criterion 09a
PLANT_MASS_BOUND = 1e-6     # classical-feedback scenario test
TIME_MATCH = 1e-9

OSC = weyl.HamiltonianSymbol((((2,), (0,), 0.5), ((0,), (2,), 0.5)), d=1)
QUARTIC = weyl.HamiltonianSymbol((((0,), (2,), 0.5), ((4,), (0,), 0.25)), d=1)
FREE = weyl.HamiltonianSymbol((((0,), (2,), 0.5),), d=1)


def lab64():
    """The default d=1 laboratory (n=64, L=10, unit covariance)."""
    return lattice.make_phase_space(1, 64, 10.0, [[1.0]])


def lab_quartic():
    """Criterion-07 quartic geometry: n=64, L=6, B=0.5."""
    tol = TolerancePolicy(boundary_mass=1e-3, imaginary_residue=1e-7)
    return lattice.make_phase_space(1, 64, 6.0, [[0.5]], tol)


def spec32c():
    """Per-factor grid of the two-mode composites: n=32, L=7.2."""
    tol = TolerancePolicy(imaginary_residue=1e-5, domain_tail_mass=1e-9,
                          boundary_mass=1e-4)
    return lattice.make_phase_space(1, 32, 7.2, [[1.0]], tol)


def pair_by_time(left, right, times):
    """Pair two (t, x) snapshot lists on the requested times.

    Returns (pairs, None) or (None, reason) when either list misses a
    requested time or carries an extra or shifted one.
    """
    for name, snaps in (("moyal", left), ("oracle", right)):
        got = [t for t, _ in snaps]
        if len(got) != len(times) or any(
                abs(a - b) > TIME_MATCH for a, b in zip(got, times)):
            shown = ", ".join(f"{t:.6g}" for t in got)
            want = ", ".join(f"{t:.6g}" for t in times)
            return None, (f"{name} snapshot times [{shown}] != requested "
                          f"[{want}]")
    return [(t, a, b) for t, (_, a), (_, b) in zip(times, left, right)], None


def over_bound(what, value, bound):
    if value <= bound:
        return None
    return f"{what} {value:.3e} > {bound:g}"


class Workload:
    name = None
    kinds = ()

    def task(self, i):
        """Run task i; return None when its checks hold, else the reason."""
        raise NotImplementedError

    def close(self):
        """Release what set-up created (files, directories)."""


class EvolveD1(Workload):
    """Moyal RK4 runs checked against the von Neumann oracle, paired by time.

    Kinds: harmonic (K=1), quartic (K=2, CFL override) and the eta route.
    Step counts are chosen so that the three kinds cost about the same.
    """

    name = "evolve_d1"
    kinds = ("harmonic", "quartic", "eta")
    POOL = 4

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.lab = lab64()
        self.labq = lab_quartic()
        self.inputs = []
        for _ in range(self.POOL):
            dq, dp = rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5)
            qq, qp = rng.uniform(0.8, 1.1), rng.uniform(-0.2, 0.2)
            self.inputs.append({
                "harmonic": (hilbert.pure_density(
                    states.displaced_state(self.lab, dq, dp)), None),
                "quartic": (hilbert.pure_density(
                    states.displaced_state(self.labq, qq, qp)), None),
                "eta": (hilbert.pure_density(
                    states.displaced_state(self.lab, dq, dp)),
                    states.analytic_gaussian_eta(self.lab, dq, dp)),
            })
        self.runs = {
            "harmonic": moyal.EvolutionRun(dt=1e-3, t_end=0.3, stride=100),
            "quartic": moyal.EvolutionRun(dt=1e-3, t_end=0.22, stride=55,
                                          enforce_cfl=False),
            "eta": moyal.EvolutionRun(dt=1e-3, t_end=0.17, stride=85),
        }

    def task(self, i):
        kind = self.kinds[i % len(self.kinds)]
        T0, phi0 = self.inputs[(i // len(self.kinds)) % self.POOL][kind]
        run = self.runs[kind]
        if kind == "harmonic":
            return compare_run(T0, OSC, 1, run, HARMONIC_BOUND)
        if kind == "quartic":
            return compare_run(T0, QUARTIC, 2, run, QUARTIC_BOUND)
        return compare_run(T0, OSC, 1, run, ETA_BOUND, phi0=phi0)


def compare_run(T0, symbol, K, run, bound, phi0=None):
    """One compare-style run: evolve, oracle, max |dW| over time-paired snapshots.

    With phi0 the eta density is evolved (eta_moyal_rhs) and mapped back
    through eta_to_wigner before the comparison.
    """
    field0 = phi0 if phi0 is not None else wigner.wigner_from_density(T0)
    gen = moyal.MoyalGenerator(symbol, T0.space, truncation=K)
    res = moyal.evolve(field0, gen, run)
    oracle = moyal.von_neumann_oracle(T0, symbol, run)
    pairs, reason = pair_by_time(res.snapshots, oracle, run.snapshot_times())
    if reason:
        return reason
    worst = 0.0
    for _, f, Tt in pairs:
        W = wigner.eta_to_wigner(f) if phi0 is not None else f
        Wo = wigner.wigner_from_density(Tt)
        worst = max(worst, float(np.abs(W.values - Wo.values).max()))
    return over_bound("max |dW| vs oracle", worst, bound)


def quench_probe(seed, count=2):
    """Off-lattice quench runs, time-paired against the oracle (not timed).

    A free particle is switched to the oscillator at a seeded breakpoint that
    lies between two dt steps. Returns one (breakpoint, reason or None) per run.
    """
    rng = np.random.default_rng([seed, 5])
    spec = lab64()
    run = moyal.EvolutionRun(dt=1e-3, t_end=0.3, stride=50)
    out = []
    for _ in range(count):
        b = (int(rng.integers(100, 200)) + float(rng.uniform(0.2, 0.8))) * run.dt
        sym = weyl.HamiltonianSymbol(schedule=((0.0, FREE.terms),
                                               (b, OSC.terms)), d=1)
        T0 = hilbert.pure_density(states.displaced_state(
            spec, rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5)))
        try:
            reason = compare_run(T0, sym, 2, run, HARMONIC_BOUND)
        except wignerlab.WignerLabError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        out.append((b, reason))
    return out


class TransformD1(Workload):
    """Lattice transforms of seeded rank-4 mixed states at d=1, n=256."""

    name = "transform_d1"
    kinds = ("transform",)
    POOL = 6

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.spec = lattice.make_phase_space(1, 256, 20.0, [[1.0]])
        self.inputs = [states.random_mixed(self.spec, rng, rank=4)
                       for _ in range(self.POOL)]

    def task(self, i):
        T = self.inputs[i % self.POOL]
        tol = self.spec.tol
        W = wigner.wigner_from_density(T)
        W2 = wigner.wigner_from_weyl_function(wigner.weyl_samples_field(T))
        phi = wigner.eta_density(W)
        T2 = wigner.inverse_wigner(W, validate=True)
        roundtrip = float(np.linalg.norm(T2.matrix - T.matrix)
                          / np.linalg.norm(T.matrix))
        route = float(np.abs(W.values - W2.values).max())
        mass = abs(W.integrate().real - 1.0)
        eta_mass = abs(phi.eta_integrate().real - 1.0)
        return (over_bound("roundtrip", roundtrip, tol.roundtrip)
                or over_bound("route equivalence", route,
                              tol.route_equivalence)
                or over_bound("mass", mass, tol.field_mass)
                or over_bound("eta mass", eta_mass, tol.field_mass))


class FeedbackD2(Workload):
    """Two grid factors P1, C1 (n=32 each, D=1024), exact and classical legs."""

    name = "feedback_d2"
    kinds = ("exact", "classical")
    POOL = 2

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.spec = spec32c()
        self.layout = feedback.SubsystemLayout({"P1": self.spec,
                                                "C1": self.spec})
        system = self.layout.system()
        self.osc = weyl.weyl_quantize(OSC, self.spec)
        D = self.layout.dim
        self.h_free = feedback.build_general_hamiltonian(
            self.osc, self.osc, np.zeros((D, D)), self.layout)
        self.inputs = []
        for _ in range(self.POOL):
            T0 = hilbert.tensor(
                hilbert.pure_density(states.displaced_state(
                    self.spec, rng.uniform(0.5, 1.2), rng.uniform(-0.3, 0.3))),
                hilbert.pure_density(states.ground_state(self.spec)), system)
            self.inputs.append({
                "T0": T0,
                "g_qq": rng.uniform(0.2, 0.6),
                "g_pp": rng.uniform(0.0, 0.2),
                "c12": rng.uniform(0.1, 0.4),
            })
        self.run_exact = moyal.EvolutionRun(dt=1e-2, t_end=0.1, stride=10)
        self.run_classical = moyal.EvolutionRun(dt=2e-3, t_end=4e-3, stride=1,
                                                enforce_cfl=False)

    def task(self, i):
        kind = self.kinds[i % len(self.kinds)]
        inp = self.inputs[(i // len(self.kinds)) % self.POOL]
        if kind == "exact":
            return self._exact(inp)
        return self._classical(inp)

    def _exact(self, inp):
        q = weyl.weyl_quantize(
            weyl.HamiltonianSymbol((((1,), (0,), 1.0),), d=1), self.spec)
        p = weyl.weyl_quantize(
            weyl.HamiltonianSymbol((((0,), (1,), 1.0),), d=1), self.spec)
        K = inp["g_qq"] * np.kron(q, q) + inp["g_pp"] * np.kron(p, p)
        H = feedback.build_general_hamiltonian(self.osc, self.osc, K,
                                               self.layout)
        reason = check_verdict(K, feedback.classify_coupling(K, self.layout))
        if reason:
            return reason
        res = feedback.run_scenario(self.layout, H, inp["T0"], self.run_exact,
                                    h_plant=self.osc)
        if len(res.square_residuals) != len(res.times) or not len(res.times):
            return (f"{len(res.square_residuals)} square residuals for "
                    f"{len(res.times)} snapshots")
        return over_bound("reduction square residual",
                          float(res.square_residuals.max()), SQUARE_BOUND)

    def _classical(self, inp):
        sym = weyl.HamiltonianSymbol(
            (((2, 0), (0, 0), 0.5), ((0, 2), (0, 0), 0.5),
             ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
             ((1, 1), (0, 0), inp["c12"])), d=2)
        res = feedback.run_scenario(self.layout, self.h_free, inp["T0"],
                                    self.run_classical,
                                    classical_feedback=True,
                                    hamiltonian_symbol=sym)
        want = self.run_classical.snapshot_times()
        if len(res.plant_wigner) != len(want):
            return f"{len(res.plant_wigner)} plant snapshots, want {len(want)}"
        worst = max(abs(f.integrate().real - 1.0) for _, f in res.plant_wigner)
        return over_bound("plant mass", worst, PLANT_MASS_BOUND)


def check_verdict(K, verdict):
    """Check the classifier's verdict on K against K itself.

    K lives inside the (P1 C1) block, so nothing sits across the cut: the
    verdict is no_feedback, the plant-side witness is the traceless part of K
    and the other witness is zero, within the classifier's own tolerances.
    """
    if verdict.kind != feedback.NO_FEEDBACK:
        return f"classifier verdict {verdict.kind} != {feedback.NO_FEEDBACK}"
    D = K.shape[0]
    K0 = K - (np.trace(K) / D) * np.eye(D)
    if verdict.witness_a.shape != K0.shape:
        return f"witness_a shape {verdict.witness_a.shape} != {K0.shape}"
    scale = float(np.linalg.norm(K0))
    return (over_bound("|witness_a - traceless K| / |K|",
                       float(np.linalg.norm(verdict.witness_a - K0)) / scale,
                       DEFAULT_TOL.classifier_residual)
            or over_bound("|witness_b| / |K|",
                          float(np.linalg.norm(verdict.witness_b)) / scale,
                          DEFAULT_TOL.classifier_nonscalar))


class CliBatch(Workload):
    """One task = transform, evolve, oracle and feedback through cli.main."""

    name = "cli_batch"
    kinds = ("batch",)

    def __init__(self, seed, root, scratch):
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.seed = seed
        self.work = tempfile.mkdtemp(prefix="cli_batch-", dir=scratch)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=16)]
        transform_cfg = {
            "version": "1",
            "phase_space": {"d": 1, "n_per_axis": 256, "half_width": 20.0,
                            "covariance": [[1.0]]},
            "initial_state": {"type": "random_mixed", "rank": 4},
            "output": {"formats": ["csv"], "write_plot_script": True},
        }
        evolve_cfg = {
            "version": "1",
            "phase_space": {"d": 1, "n_per_axis": 64, "half_width": 10.0,
                            "covariance": [[1.0]]},
            "hamiltonian": {"terms": [
                {"powers_q": [2], "powers_p": [0], "coeff": 0.5},
                {"powers_q": [0], "powers_p": [2], "coeff": 0.5}]},
            "initial_state": {"type": "displaced",
                              "dq": float(rng.uniform(1.0, 2.0)),
                              "dp": float(rng.uniform(-0.5, 0.5))},
            "run": {"dt": 1e-3, "t_end": 0.2, "stride": 50,
                    "truncation_k": 1},
            "output": {"formats": ["csv"], "write_plot_script": True},
        }
        self.configs = {}
        for name, body in (("transform", transform_cfg),
                           ("evolve", evolve_cfg)):
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w") as f:
                json.dump(body, f)
            self.configs[name] = path
        self.configs["oracle"] = os.path.join(root, "configs", "harmonic.json")
        self.configs["feedback"] = os.path.join(root, "configs",
                                                "feedback_levels.json")
        self.specs = {}
        for name in ("transform", "evolve", "oracle"):
            with open(self.configs[name]) as f:
                self.specs[name] = config.parse_config(f.read()).phase_space
        # (command, field read back from its output, or None)
        self.steps = (("transform", "wigner"), ("evolve", "snapshot_0004"),
                      ("oracle", "snapshot_0009"), ("feedback", None))

    def task(self, i):
        seed = self.seeds[i % len(self.seeds)]
        out_root = os.path.join(self.work, f"task-{i}")
        try:
            for command, field in self.steps:
                out = os.path.join(out_root, command)
                code = cli.main([command, "--config", self.configs[command],
                                 "--out", out, "--seed", str(seed)])
                if code != 0:
                    return f"{command} exited {code}"
                if not os.path.isfile(os.path.join(out, "manifest.json")):
                    return f"{command} wrote no manifest.json"
                if field is None:
                    continue
                spec = self.specs[command]
                f = serialize.load_field_binary(os.path.join(out, field),
                                                spec, spec.tol)
                reason = over_bound(f"{command} {field} mass",
                                    abs(f.integrate().real - 1.0),
                                    spec.tol.field_mass)
                if reason:
                    return reason
            return None
        finally:
            shutil.rmtree(out_root, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (EvolveD1, TransformD1, FeedbackD2, CliBatch)}


def build(name, seed, root, scratch):
    cls = WORKLOADS[name]
    if cls is CliBatch:
        return cls(seed, root, scratch)
    return cls(seed)
