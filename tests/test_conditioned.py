import copy
import json
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

import zerohold as z
from conftest import single_interior_spec, four_state_spec


def _conditioned(spec, kind):
    ha = z.analyze_hitting(spec)
    sol = None if ha.transient else z.solve_phi(ha)
    if kind == "limit":
        lv = z.limit_vector_transient(ha) if ha.transient else z.limit_vector_recurrent(sol)
        return z.make_limit_chain(lv)
    if kind == "vague":
        return z.make_vague_limit(spec)
    if kind == "hlambda":
        return z.make_hlambda(spec, 0.5 * (ha.alpha_C if sol is None else sol.phi))
    # a non-harmonic weight on four-state, so that the interior kill shows
    a = z.harmonic_vector_bd(spec) if spec.escape_state is not None else np.arange(spec.n_states, dtype=float)
    return z.make_subexp_weak(spec, a)


@pytest.mark.parametrize("kind", ["limit", "vague", "hlambda", "subexp"])
@pytest.mark.parametrize("spec", [four_state_spec(), z.build_birth_death(1.0, 2.0, 12, {1: 1.0})],
                         ids=["four-state", "bd12"])
def test_every_kind_is_one_h_transform(spec, kind):
    cond = _conditioned(spec, kind)
    h, n = cond.h_values, spec.n_states
    assert h[0] == 1.0
    for i in range(1, n):
        # a state where h is zero (h_lambda = F(lambda) at an escape state) has an empty row
        for j in range(n):
            want = 0.0 if i == j or h[i] == 0.0 else spec.rates[i, j] * h[j] / h[i]
            assert cond.rates[i, j] == pytest.approx(want, rel=1e-15, abs=0.0)
        if h[i] == 0.0:
            assert cond.hold_rates[i] == 0.0
    assert not cond.rates[0].any()
    weights = spec.rates[0] * h
    assert cond.exit_probs == pytest.approx(weights / weights.sum(), rel=1e-15, abs=0.0)
    assert cond.exit_probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(cond.hold_rates, cond.rates.sum(axis=1) + cond.interior_kill)
    assert cond.interior_kill.any() == (kind == "subexp")
    assert cond.h_origin(0.0) == 1.0
    if kind != "hlambda":
        # no threshold kill: the profile J(theta - u) / J(theta) at clock rate tilt - q0
        a, theta = cond.tilt - spec.q0, spec.theta
        for u in (0.1 * theta, 0.5 * theta, 0.9 * theta):
            assert cond.h_origin(u) == pytest.approx(math.expm1(a * (theta - u)) / math.expm1(a * theta), rel=1e-14)


def test_hlambda_solves_its_transform_once(four_state, hitting_mgf_calls):
    lam = 0.5 * z.solve_phi(z.analyze_hitting(four_state)).phi
    del hitting_mgf_calls[:]
    cond = z.make_hlambda(four_state, lam)
    assert [args[1] for args in hitting_mgf_calls] == [lam]
    assert np.array_equal(cond.h_values[1:], z.hitting_mgf(four_state, lam).values[1:])


def test_limit_chain_interior_rows_conservative(four_state):
    sol = z.solve_phi(z.analyze_hitting(four_state))
    lv = z.limit_vector_recurrent(sol)
    cond = z.make_limit_chain(lv)
    rates = np.asarray(cond.rates)
    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    hold = np.asarray(cond.hold_rates)
    # every interior row must pour exactly its holding rate into neighbours
    assert np.abs(off.sum(axis=1)[1:] - hold[1:]).max() < 1e-10
    assert off[0].sum() == 0.0
    assert cond.kill_mode == "none"
    assert cond.visit_kill_prob == 0.0
    assert cond.honest


def test_limit_chain_exit_probs_distribution(four_state):
    sol = z.solve_phi(z.analyze_hitting(four_state))
    lv = z.limit_vector_recurrent(sol)
    cond = z.make_limit_chain(lv)
    ep = np.asarray(cond.exit_probs)
    assert ep.min() >= 0.0
    assert ep.sum() == pytest.approx(1.0, abs=1e-12)
    assert ep[0] == 0.0


def test_limit_chain_single_interior_tilt(single_interior):
    sol = z.solve_phi(z.analyze_hitting(single_interior))
    lv = z.limit_vector_recurrent(sol)
    cond = z.make_limit_chain(lv)
    hold = np.asarray(cond.hold_rates)
    # the transformed interior holding rate is the raw one shifted down by phi
    assert hold[1] == pytest.approx(2.0 - sol.phi, abs=1e-10)
    assert np.asarray(cond.exit_probs)[1] == pytest.approx(1.0, abs=1e-12)
    assert cond.tilt == pytest.approx(sol.phi, abs=1e-12)


def test_limit_chain_json_origin_holding(single_interior):
    sol = z.solve_phi(z.analyze_hitting(single_interior))
    lv = z.limit_vector_recurrent(sol)
    cond = z.make_limit_chain(lv)
    doc = json.loads(z.conditioned_to_json(cond))
    assert doc["kind"] == "limit"
    oh = doc["origin_holding"]
    assert oh["type"] == "tilted_exponential"
    assert oh["phi"] == pytest.approx(sol.phi)
    assert oh["q0"] == 1.0
    assert oh["theta"] == 1.0
    assert doc["honest"] is True


def test_vague_limit_is_substochastic(single_interior):
    cond = z.make_vague_limit(single_interior)
    assert cond.kind == "vague"
    assert cond.honest is False
    doc = json.loads(z.conditioned_to_json(cond))
    hz = doc["hazard"]
    assert hz["type"] == "theorem36"
    assert hz["q0"] == 1.0
    assert hz["theta"] == 1.0
    # the origin-holding kill hazard grows as the clock nears the threshold
    grid = [0.05, 0.3, 0.7, 0.95]
    vals = [cond.killing_hazard(u) for u in grid]
    assert all(v > 0.0 for v in vals)
    assert vals == sorted(vals)


@pytest.mark.parametrize("spec", [single_interior_spec(), four_state_spec()], ids=["single-interior", "four-state"])
def test_vague_kill_hazard_integrates_to_the_visit_kill_law(spec):
    # Theorem 3.6: a visit killed at hazard k(u) while it survives with
    # origin_survivor(u) is killed by clock u with probability
    # e^{-q0 theta} (1 - e^{-q0 u}) / (1 - e^{-q0 theta})
    cond = z.make_vague_limit(spec)
    q0, theta = spec.q0, spec.theta
    for u in (0.1 * theta, 0.5 * theta, 0.9 * theta):
        got = quad(lambda v: cond.killing_hazard(v) * cond.origin_survivor(v), 0.0, u, epsabs=0.0)[0]
        want = cond.visit_kill_prob * math.expm1(-q0 * u) / math.expm1(-q0 * theta)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_hlambda_zero_is_the_raw_killed_chain(single_interior):
    cond = z.make_hlambda(single_interior, 0.0)
    assert cond.kind == "hlambda"
    assert cond.tilt == 0.0
    rates = np.asarray(cond.rates)
    assert rates[1, 0] == pytest.approx(2.0, abs=1e-12)
    assert rates[0].sum() == 0.0
    assert cond.kill_mode == "at-threshold"
    # a visit to the origin survives the whole window with prob e^{-q0 theta}
    assert cond.visit_kill_prob == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_subexp_weak_honest_with_exact_harmonic_vector():
    walk = z.build_birth_death(1.0, 2.0, 12, {1: 1.0})
    a = z.harmonic_vector_bd(walk)
    cond = z.make_subexp_weak(walk, a)
    assert cond.kind == "subexp-weak"
    assert cond.honest is True
    assert cond.harmonic_residual <= 1e-9
    kill = np.asarray(cond.interior_kill)
    # no killing anywhere the transform is exactly harmonic; the escape row
    # keeps its kill mass by construction
    assert np.abs(kill[: walk.escape_state]).max() <= 1e-12


def test_subexp_weak_honesty_is_scale_relative():
    # the 2^i harmonic vector at depth 60 carries ~1e18 entries; float noise
    # leaves an O(1) absolute residual that is still ~1e-18 relative
    walk = z.build_birth_death(1.0, 2.0, 60, {1: 1.0})
    a = z.harmonic_vector_bd(walk)
    cond = z.make_subexp_weak(walk, a)
    assert cond.honest is True
    assert cond.harmonic_residual <= 1e-9 * a.max()


def test_subexp_weak_flags_non_harmonic_vector():
    walk = z.build_birth_death(1.0, 2.0, 12, {1: 1.0})
    a = z.harmonic_vector_bd(walk)
    a[3] *= 1.5
    cond = z.make_subexp_weak(walk, a)
    assert cond.honest is False
    assert cond.harmonic_residual > 1e-3


def test_conditioned_json_key_sets(single_interior):
    sol = z.solve_phi(z.analyze_hitting(single_interior))
    lv = z.limit_vector_recurrent(sol)
    base_keys = {
        "exit_probs",
        "h_values",
        "harmonic_residual",
        "honest",
        "interior_rates",
        "kill_mode",
        "kind",
        "origin_holding",
        "visit_kill_prob",
    }
    limit_doc = json.loads(z.conditioned_to_json(z.make_limit_chain(lv)))
    assert set(limit_doc) == base_keys
    vague_doc = json.loads(z.conditioned_to_json(z.make_vague_limit(single_interior)))
    assert base_keys - {"origin_holding"} <= set(vague_doc)
    assert "hazard" in vague_doc
    walk = z.build_birth_death(1.0, 2.0, 12, {1: 1.0})
    sub_doc = json.loads(z.conditioned_to_json(z.make_subexp_weak(walk, z.harmonic_vector_bd(walk))))
    assert "interior_kill" in sub_doc


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("spec", [four_state_spec(), z.build_birth_death(1.0, 2.0, 60, {1: 1.0}),
                                  z.build_birth_death(2.0, 1.0, 12, {1: 1.0})],
                         ids=["four-state", "bd60", "transient-bd12"])
def test_origin_law_survives_a_copy(spec, copy_of):
    # the conditioned chains and limit vectors hold data only, so a copy computes
    # every origin quantity bit for bit as the original does
    grid = np.linspace(0.0, spec.theta, 9, endpoint=False)
    ha = z.analyze_hitting(spec)
    # the tail vector of the subexponential kind needs a recurrent walk
    for kind in ["limit", "vague", "hlambda"] + ([] if ha.transient else ["subexp"]):
        cond = _conditioned(spec, kind)
        twin = copy_of(cond)
        assert twin.kind == cond.kind and twin.kill_mode == cond.kill_mode
        for u in grid:
            assert twin.h_origin(u) == cond.h_origin(u)
            assert twin.origin_survivor(u) == cond.origin_survivor(u)
            if kind == "vague":
                assert twin.killing_hazard(u) == cond.killing_hazard(u)
        assert np.array_equal(twin.rates, cond.rates)
    lv = z.limit_vector_transient(ha) if ha.transient else z.limit_vector_recurrent(z.solve_phi(ha))
    twin = copy_of(lv)
    assert twin.provenance == lv.provenance
    assert [twin.origin(u) for u in grid] == [lv.origin(u) for u in grid]


@pytest.mark.parametrize("spec", [four_state_spec(), z.build_birth_death(2.0, 1.0, 12, {1: 1.0})],
                         ids=["four-state", "transient-bd12"])
def test_each_stage_carries_its_chain(spec):
    # every stage reads its chain from the record it builds on, never from a spec beside it
    ha = z.analyze_hitting(spec)
    rows = [(ha, spec)]
    if ha.transient:
        lv = z.limit_vector_transient(ha)
        rows.append((lv, ha.spec))
    else:
        sol = z.solve_phi(ha)
        lv = z.limit_vector_recurrent(sol)
        rows += [(sol, ha.spec), (lv, sol.spec)]
    rows.append((z.make_limit_chain(lv), lv.spec))
    assert [type(record).__name__ for record, chain in rows if record.spec is not chain] == []


@pytest.mark.parametrize("kind", ["limit", "hlambda", "subexp"])
def test_killing_hazard_belongs_to_the_vague_limit(kind):
    cond = _conditioned(four_state_spec(), kind)
    with pytest.raises(z.PreconditionError, match="no killing hazard"):
        cond.killing_hazard(0.1)


@pytest.mark.parametrize("u", [5.0, 1.0, -0.1, math.nan])
@pytest.mark.parametrize("kind", ["limit", "vague", "hlambda", "subexp"])
def test_every_origin_quantity_checks_its_clock(kind, u):
    # the tilted reduction once returned -0.157 at u = 5 on single-interior, past the window
    spec = single_interior_spec()
    cond = z.make_hlambda(spec, 0.1) if kind == "hlambda" else _conditioned(spec, kind)
    with pytest.raises(z.PreconditionError, match="below the window"):
        cond.origin_survivor(u)
    with pytest.raises(z.PreconditionError, match="below the window"):
        cond.h_origin(u)
    if kind == "vague":
        with pytest.raises(z.PreconditionError, match="below the window"):
            cond.killing_hazard(u)
    lv = z.limit_vector_recurrent(z.solve_phi(z.analyze_hitting(spec)))
    with pytest.raises(z.PreconditionError, match="below the window"):
        lv.origin(u)
