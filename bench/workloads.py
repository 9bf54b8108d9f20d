"""The four benchmark workloads and the checks on their outputs.

A workload is a closed loop: one process takes one map after another,
each as soon as the previous one is done. `build(seed)` makes the inputs
(the part timed as set-up) and `ops(state, round_index)` lists one round
of map operations. Every round has the same make-up for every seed: the
seed (and on `certify` and `flows` the round) changes coefficients, never
the dimensions, norms and degrees, so two runs with different seeds do
about the same amount of work.

An operation is timed around its hologen calls only; its `check` then
compares the outputs with `reference` (computed apart from hologen) or
with a property the output must have, and returns an `Outcome`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# The nine (dim, p) pairs and the degree of each slot. Slot i is
# (DIMS[i % 3], PS[i // 3]) with degree 2 + i % 7: every pair once and
# every degree 2..8 at least once; the p = 2, dim 4 slot has degree 7.
DIMS = (1, 2, 4)
PS = (1.0, 2.0, math.inf)
SLOTS = tuple((DIMS[i % 3], PS[i // 3], 2 + i % 7) for i in range(9))

# every third radius of the default grid (0.1 .. 0.95 step 0.05, then 0.99):
# the full grid makes a round of 40-65 s, this one about half that
GROWTH_RADII = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99)
INNER_TOL = 1e-12


@dataclass
class Outcome:
    """What a check found: `errors` are wrong outputs, `failed` marks an
    operation that hit the known fault the workload keeps on purpose."""

    errors: list = field(default_factory=list)
    failed: bool = False
    quality: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One map operation: `run` makes the hologen calls and is timed,
    `check` inspects what `run` returned and is not."""

    label: str
    maps: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def map_seed(seed: int, slot: int) -> int:
    return 9 * (seed % (1 << 24)) + slot


def round_seed(seed: int, round_index: int) -> int:
    """Seed of the maps of one round. Each round of a run draws its own
    maps, so a run's per-slot medians average over several draws and the
    figures depend less on how hard the maps of one seed happen to be."""
    return 64 * (seed % (1 << 18)) + round_index % 64


def coord_of(pm) -> ref.CoordMap:
    """Reference view of a hologen PolyMap built as a coordinatewise lift."""
    return ref.coord_map(pm.space.p, pm.constant, pm.linear,
                         [(h.degree, h.powers, h.coeffs) for h in pm.higher])


def slot_maps(hg, seed: int) -> list:
    """The nine seeded generators, one per slot."""
    return [hg.polymaps.sample_generator(hg.spaces.NormedSpace(dim, p),
                                         map_seed(seed, i), degree)
            for i, (dim, p, degree) in enumerate(SLOTS)]


def random_unitary(n: int, key: int) -> np.ndarray:
    rng = np.random.default_rng([key, 4242])
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# -- growth -----------------------------------------------------------------------


def build_growth(hg, seed: int) -> dict:
    maps = slot_maps(hg, seed)
    items = [(f"slot{i}", G, coord_of(G)) for i, G in enumerate(maps)]
    # dense copies of the p = 2 maps of dim 2 and 4 (a 1x1 unitary is a phase)
    for i, (dim, p, _) in enumerate(SLOTS):
        if p == 2.0 and dim > 1:
            U = random_unitary(dim, map_seed(seed, i))
            items.append((f"dense{i}", hg.polymaps.unitary_conjugate(maps[i], U),
                          items[i][2]))
    space = hg.spaces.NormedSpace(2, 2.0)
    identity = hg.polymaps.PolyMap(space, np.zeros(2), np.eye(2), ())
    return {"items": items, "identity": identity}


def _growth_op(hg, label, G, cm) -> Op:
    radii = np.array(GROWTH_RADII)

    def run():
        return (hg.bounds.verify_growth_bound(G, radii=radii),
                hg.bounds.verify_intermediate_chain(G, radii=radii))

    def check(result) -> Outcome:
        rep, chain = result
        out = Outcome()
        if rep.violated or rep.min_slack < -1e-9:
            out.errors.append(f"{label}: envelope slack {rep.min_slack:.3e}")
        if not chain.passed:
            out.errors.append(f"{label}: inequality chain failed")
        radius, inf = ref.numerical_radius(cm), ref.range_inf(cm)
        est = rep.inputs
        for name, value in (("linear_radius", est.linear_radius),
                            ("shifted_radius", est.shifted_radius)):
            if value > radius + INNER_TOL:
                out.errors.append(f"{label}: {name} {value!r} above exact {radius!r}")
        if est.shifted_range_inf < inf - INNER_TOL:
            out.errors.append(f"{label}: range infimum {est.shifted_range_inf!r} "
                              f"below exact {inf!r}")
        ratios = []
        for i, r_eff in enumerate(rep.radii):
            _, up = ref.shell_sup_bracket(cm, max(float(r_eff), GROWTH_RADII[i]))
            if rep.lhs[i] > up * (1.0 + INNER_TOL):
                out.errors.append(f"{label}: shell supremum {rep.lhs[i]!r} at r = "
                                  f"{r_eff} above the exact bound {up!r}")
            ratios.append(rep.lhs[i] / up)
        out.quality = {
            "shell_sup_ratio": ratios,
            "range_radius_ratio": [min(est.linear_radius, est.shifted_radius) / radius],
            "range_inf_ratio": [est.shifted_range_inf / inf],
        }
        return out

    return Op(label, 1, run, check)


def _dense_shells_op(hg, label, D, cm) -> Op:
    """The shell suprema and polynomial numerical radii of a dense dim-4 copy:
    the searches of verify_growth_bound without its range estimates. On about
    2 % of seeds the p = 2 range-infimum cross-check raises
    OracleMismatchError on these maps, in verify_growth_bound and in the chain
    alike, and an operation that fails on some seeds only cannot stay in a run."""
    radii = np.array(GROWTH_RADII)
    d0 = np.asarray(D.constant, dtype=np.complex128)

    def run():
        shells = [hg.numrange.sup_norm_on_sphere(
            D.space, lambda V, r=r: D.eval_batch(r * V) - d0[None, :], salt=11 + i)[0]
            for i, r in enumerate(radii)]
        return shells, [hg.numrange.polynomial_numerical_radius(D.space, h).value
                        for h in D.higher]

    def check(result) -> Outcome:
        shells, poly = result
        out = Outcome()
        ratios = []
        for r, value in zip(radii, shells):
            _, up = ref.shell_sup_bracket(cm, float(r))
            if value > up * (1.0 + INNER_TOL):
                out.errors.append(f"{label}: shell supremum {value!r} at r = {r} "
                                  f"above the exact bound {up!r}")
            ratios.append(value / up)
        for h, value in zip(D.higher, poly):
            exact = ref.polynomial_radius(cm, h.degree)
            if value > exact + INNER_TOL:
                out.errors.append(f"{label}: degree-{h.degree} numerical radius "
                                  f"{value!r} above exact {exact!r}")
        out.quality = {"shell_sup_ratio": ratios}
        return out

    return Op(label, 1, run, check)


def ops_growth(hg, state: dict, round_index: int) -> list:
    ops = [(_dense_shells_op if label.startswith("dense") and G.space.dim == 4
            else _growth_op)(hg, label, G, cm) for label, G, cm in state["items"]]

    def refuse():
        try:
            hg.bounds.verify_growth_bound(state["identity"])
        except hg.certify.NotCertifiedError:
            return "refused"
        return "bounded"

    def check_refusal(result) -> Outcome:
        ok = result == "refused"
        return Outcome([] if ok else ["expanding identity map reached the bound stage"])

    ops.append(Op("identity", 1, refuse, check_refusal))
    return ops


# -- certify ----------------------------------------------------------------------


def _kappa_perturbed(hg, G, seed: int):
    """Acceptance criterion 8's perturbation G + kappa id, refuted by design."""
    space = G.space
    shells = np.array([0.5, 0.9])
    V = space.sphere_sample(32, seed)
    probe = (shells[:, None, None] * V[None, :, :]).reshape(-1, space.dim)
    slack = hg.certify.generator_slack(G, probe)
    kappa = (max(0.0, float(np.max(slack))) + 1.0) / 0.25
    return hg.certify.shift_to_generator(G, 0.0, -kappa)


def build_certify(hg, seed: int) -> dict:
    # The round trips use acceptance criterion 3's inputs for seeds 0..8,
    # which do not depend on the run seed: the boundary faults they hit are
    # the same in every run, so the failed share repeats exactly.
    fixed = slot_maps(hg, 0)
    trips = []
    for i, G in enumerate(fixed):
        rng = np.random.default_rng([i, 1311])
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        a = float(rng.uniform(-2.0, 2.0))
        F = hg.certify.inverse_shift(G, theta, a)
        trips.append((F, coord_of(F)))
    return {"seed": seed, "trips": trips, "agree": [_agreement_maps(hg, seed, 0)]}


def _agreement_maps(hg, seed: int, round_index: int) -> tuple:
    """Criterion 8's clean maps and their kappa-perturbed copies for one round."""
    key = round_seed(seed, round_index)
    clean = slot_maps(hg, key)
    bad = [_kappa_perturbed(hg, G, map_seed(key, i)) for i, G in enumerate(clean)]
    return clean, [(B, coord_of(B)) for B in bad]


def ops_certify(hg, state: dict, round_index: int) -> list:
    ops = []
    clean, bad = (state["agree"][0] if round_index == 0
                  else _agreement_maps(hg, state["seed"], round_index))
    for i in range(len(SLOTS)):
        F, cmF = state["trips"][i]
        G = clean[i]
        B, cmB = bad[i]
        label = f"slot{i}"

        def run(F=F, G=G, B=B):
            cert = hg.certify.certify_pseudo_dissipative(F)
            back = hg.certify.certify_generator(
                hg.certify.shift_to_generator(F, cert.theta, cert.a))
            return (cert, back, hg.certify.restriction_agreement(G),
                    hg.certify.restriction_agreement(B), hg.certify.certify_generator(B))

        def check(result, label=label, cmF=cmF, cmB=cmB) -> Outcome:
            cert, back, agree, agree_bad, bad_verdict = result
            out = Outcome()
            if cert.verdict != "certified" or back.verdict != "certified":
                out.errors.append(f"{label}: round trip {cert.verdict}/{back.verdict}")
            else:
                # the certified claim covers every z with ||z|| <= 0.9995
                worst, _ = ref.boundary_probe(cmF.shifted(cert.theta, cert.a))
                out.failed = worst < -1e-9
            if agree["ball_verdict"] != "certified" or not agree["agree"]:
                out.errors.append(f"{label}: clean map {agree['ball_verdict']}, "
                                  f"agree={agree['agree']}")
            if agree_bad["ball_verdict"] != "refuted" or not agree_bad["agree"]:
                out.errors.append(f"{label}: perturbed map {agree_bad['ball_verdict']}, "
                                  f"agree={agree_bad['agree']}")
            if bad_verdict.verdict != "refuted" or bad_verdict.witness is None:
                out.errors.append(f"{label}: perturbed map {bad_verdict.verdict}")
            else:
                s = ref.generator_slack(cmB, bad_verdict.witness[None, :])[0]
                if not s < -bad_verdict.tolerance:
                    out.errors.append(f"{label}: refutation witness has slack {s:.3e}")
            return out

        ops.append(Op(label, 1, run, check))
    return ops


# -- flows ------------------------------------------------------------------------

FLOW_T = 2.0


def _flow_items(hg, seed: int, round_index: int) -> list:
    """One round's generators with their sweep seeds, starts and legs."""
    key = round_seed(seed, round_index)
    items = []
    for i, G in enumerate(slot_maps(hg, key)):
        rng = np.random.default_rng([key, 777, i])
        dirs = G.space.sphere_sample(3, map_seed(key, i) + 1)
        starts = [float(rng.uniform(0.1, 0.8)) * dirs[k] for k in range(3)]
        legs = [(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))) for _ in range(2)]
        items.append((G, coord_of(G), map_seed(key, i), starts, legs))
    return items


def build_flows(hg, seed: int) -> dict:
    items = _flow_items(hg, seed, 0)
    space = hg.spaces.NormedSpace(2, 2.0)
    decay = hg.polymaps.PolyMap(space, np.zeros(2), -np.eye(2), ())
    line = hg.spaces.NormedSpace(1, 2.0)
    riccati = hg.polymaps.PolyMap(line, np.array([1.0]), np.zeros((1, 1)), (
        hg.polymaps.HomogeneousPoly(2, np.array([[2]]), np.array([[-1.0]])),))
    return {"seed": seed, "items": items, "decay": decay, "riccati": riccati}


def ops_flows(hg, state: dict, round_index: int) -> list:
    ops = []
    items = (state["items"] if round_index == 0
             else _flow_items(hg, state["seed"], round_index))
    for i, (G, cm, key, starts, legs) in enumerate(items):
        label = f"slot{i}"

        def run(G=G, key=key, starts=starts, legs=legs):
            sweep = hg.flows.invariance_sweep(G, starts=20, t_end=10.0, seed=key)
            semi = [hg.flows.check_semigroup(G, starts[k], t, s, rtol=1e-8)
                    for k, (t, s) in enumerate(legs)]
            end = hg.flows.flow_endpoint(G, starts[2], FLOW_T)
            return sweep, semi, end

        def check(result, label=label, cm=cm, start=starts[2]) -> Outcome:
            sweep, semi, end = result
            out = Outcome()
            if sweep["escapes"] or not sweep["passed"] or not sweep["max_norm"] < 1.0:
                out.errors.append(f"{label}: {len(sweep['escapes'])} escapes, "
                                  f"max norm {sweep['max_norm']}")
            for s in semi:
                if not s["passed"] or s["difference"] > 1e-7:
                    out.errors.append(f"{label}: semigroup difference {s['difference']:.3e}")
            exact = ref.flow_endpoint(cm, start, FLOW_T)
            gap = float(ref.pnorm((end - exact)[None, :], cm.p)[0])
            if gap > 1e-7:
                out.errors.append(f"{label}: endpoint off the reference by {gap:.3e}")
            return out

        ops.append(Op(label, 1, run, check))

    z0 = np.array([0.3 + 0.2j, -0.4j])

    def closed_forms():
        return ([hg.flows.flow_endpoint(state["decay"], z0, t, rtol=1e-9) for t in (1.0, 2.0)],
                hg.flows.flow_endpoint(state["riccati"], np.array([0.0j]), 2.0, rtol=1e-9))

    def check_closed(result) -> Outcome:
        decays, tanh_end = result
        out = Outcome()
        for t, end in zip((1.0, 2.0), decays):
            err = float(np.linalg.norm(end - z0 * math.exp(-t)))
            if err > 1e-8:
                out.errors.append(f"decay at t={t}: {err:.3e}")
        err = abs(tanh_end[0] - math.tanh(2.0))
        if err > 1e-8:
            out.errors.append(f"tanh at t=2: {err:.3e}")
        return out

    ops.append(Op("closed_forms", 1, closed_forms, check_closed))
    return ops


# -- suite ------------------------------------------------------------------------

SUITE_SEEDS = 9


def build_suite(hg, seed: int) -> dict:
    out_dir = Path(__file__).resolve().parents[1] / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    return {"seed": seed % (1 << 24), "path": out_dir / "suite.json"}


def ops_suite(hg, state: dict, round_index: int) -> list:
    # 63 = lcm(9, 7): battery seed s picks dim, p and degree from s mod 9
    # and s mod 7, so a start seed divisible by 63 keeps the make-up fixed
    first = 63 * (64 * state["seed"] + round_index)
    path = state["path"]
    argv = ["verify-suite", "--seeds", str(SUITE_SEEDS), "--jobs", "2",
            "--seed", str(first), "--no-timestamp", "-o", str(path)]

    def run():
        return hg.cli.run(argv)

    def check(code) -> Outcome:
        report = json.loads(path.read_text())
        out = Outcome()
        if code != 0 or not report["all_passed"]:
            failing = [r["seed"] for r in report["results"] if not r["passed"]]
            out.errors.append(f"verify-suite from seed {first}: exit {code}, "
                              f"failing seeds {failing}")
        if len(report["results"]) != SUITE_SEEDS:
            out.errors.append(f"verify-suite returned {len(report['results'])} results")
        for r in report["results"]:
            if not r["sweep_max_norm"] < 1.0:
                out.errors.append(f"seed {r['seed']}: sweep max norm {r['sweep_max_norm']}")
        return out

    return [Op(f"suite@{first}", SUITE_SEEDS, run, check)]


WORKLOADS = {
    "growth": (build_growth, ops_growth),
    "certify": (build_certify, ops_certify),
    "flows": (build_flows, ops_flows),
    "suite": (build_suite, ops_suite),
}
