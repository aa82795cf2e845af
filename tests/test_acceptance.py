"""Acceptance gate: nine end-to-end criteria, one printed PASS/FAIL line each.

The lines bypass pytest's capture (capfd.disabled) so each appears exactly
once in the run log whether the criterion passes or fails; every criterion
also asserts, so the gate fails loudly.
"""

import json
import time

import numpy as np
import pytest

from kleinnet import degeneration, dessin, limitset, qnet, sl2, words
from kleinnet.cli import main as cli_main

W = words.Word.from_text


@pytest.fixture
def report(capfd):
    def _report(criterion: int, ok: bool, detail: str) -> bool:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {criterion}] {status}: {detail}", flush=True)
        return ok

    return _report


def test_criterion_1_trace_identities(report):
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        rep = sl2.make_rep([sl2.random_sl2(rng), sl2.random_sl2(rng)])
        u = words.random_word(rng, 2, int(rng.integers(1, 6)))
        v = words.random_word(rng, 2, int(rng.integers(1, 6)))
        chi_u = sl2.character(rep, u)
        chi_v = sl2.character(rep, v)
        lhs = sl2.character(rep, u * v) + sl2.character(rep, u * v.inverse())
        worst = max(worst, abs(lhs - chi_u * chi_v))
        worst = max(worst, abs(sl2.character(rep, u.inverse()) - chi_u))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(
        1,
        ok,
        f"trace identities over 1000 reps: worst residual {worst:.3g} "
        f"(tol 1e-8), {elapsed:.2f}s (max 5s)",
    )


def test_criterion_2_conjugation_invariance(report):
    rng = np.random.default_rng(1002)
    rep = sl2.make_rep([sl2.random_loxodromic(rng), sl2.random_sl2(rng)])
    classes = words.enumerate_classes(2, 3)
    base_theta = np.array(sl2.morgan_shalen_vector(rep, classes))
    base_point = sl2.moduli_point(rep)
    probe = W("ab")
    base_chi = sl2.character(rep, probe)
    base_len = sl2.classify(sl2.evaluate(rep, W("a"))).translation_length
    worst = 0.0
    moduli_ok = True
    for _ in range(1000):
        conj = sl2.conjugate_rep(rep, sl2.random_sl2(rng))
        worst = max(worst, abs(sl2.character(conj, probe) - base_chi))
        theta = np.array(sl2.morgan_shalen_vector(conj, classes))
        worst = max(worst, float(np.max(np.abs(theta - base_theta))))
        length = sl2.classify(sl2.evaluate(conj, W("a"))).translation_length
        worst = max(worst, abs(length - base_len))
        moduli_ok = moduli_ok and sl2.moduli_point(conj).agrees(base_point, 1e-8)
    ok = worst <= 1e-8 and moduli_ok
    assert report(
        2,
        ok,
        f"conjugation invariance over 1000 g: worst drift {worst:.3g} "
        f"(tol 1e-8), moduli agree: {moduli_ok}",
    )


def test_criterion_3_length_cross_check(report):
    rng = np.random.default_rng(1003)
    worst_formula = 0.0
    for _ in range(1000):
        m = sl2.random_loxodromic(rng)
        iso = sl2.classify(m)
        worst_formula = max(
            worst_formula,
            abs(iso.translation_length - sl2.translation_length_arccosh(m)),
        )
    worst_power = 0.0
    for _ in range(100):
        m = sl2.random_loxodromic(rng)
        base = sl2.classify(m).translation_length
        power = m
        for n in range(2, 6):
            power = power @ m
            worst_power = max(
                worst_power,
                abs(sl2.classify(power).translation_length - n * base),
            )
    ok = worst_formula <= 1e-8 and worst_power <= 1e-6
    assert report(
        3,
        ok,
        f"length formulas over 1000 loxodromics: worst gap {worst_formula:.3g} "
        f"(tol 1e-8); power law n<=5 worst {worst_power:.3g} (tol 1e-6)",
    )


def test_criterion_4_projective_length_convergence(report):
    start = time.perf_counter()
    family = degeneration.schottky_family()
    classes = words.enumerate_classes(2, 4)
    v10, v20 = degeneration.sweep(family, classes, [10.0, 20.0])
    delta = degeneration.sup_delta(v10, v20)
    oracle = degeneration.cyclic_length_oracle(classes)
    distance = degeneration.sup_delta(v20, oracle)
    elapsed = time.perf_counter() - start
    ok = delta < 0.01 and distance < 0.02 and elapsed < 10.0
    assert report(
        4,
        ok,
        f"sup-norm delta(t=10, t=20) {delta:.6f} (required < 0.01); "
        f"oracle distance at t=20 {distance:.6f} (required < 0.02); "
        f"{elapsed:.2f}s (max 10s)",
    )


def _synthetic_circle_cloud(n: int) -> limitset.LimitPointCloud:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = np.exp(1j * theta)
    charts = np.zeros(n, dtype=np.int8)
    return limitset.LimitPointCloud(values, charts, 1e-3, 0)


def test_criterion_5_fuchsian_fractal_separation(report):
    spec_fuchsian = limitset.GroupSpec.from_traces(3.0, 3.0, 3.0)
    spec_perturbed = limitset.GroupSpec.from_traces(3.0 + 0.5j, 3.0)

    start = time.perf_counter()
    cloud_f = limitset.enumerate_limit_set(spec_fuchsian, epsilon=1e-3)
    time_f = time.perf_counter() - start
    start = time.perf_counter()
    cloud_p = limitset.enumerate_limit_set(spec_perturbed, epsilon=1e-3)
    time_p = time.perf_counter() - start

    dev_f = limitset.circle_deviation(cloud_f)
    dev_p = limitset.circle_deviation(cloud_p)
    box_f = limitset.box_dimension(cloud_f)
    box_p = limitset.box_dimension(cloud_p)
    bench = limitset.box_dimension(_synthetic_circle_cloud(10_000))

    ok = (
        dev_f < 1e-3
        and dev_p > 1e-2
        and box_p - box_f >= 0.02
        and abs(bench - 1.0) <= 0.05
        and max(time_f, time_p) < 60.0
    )
    assert report(
        5,
        ok,
        f"round deviation {dev_f:.3g} (< 1e-3), perturbed deviation {dev_p:.3g} "
        f"(> 1e-2), box separation {box_p - box_f:.4f} (>= 0.02), circle "
        f"benchmark {bench:.4f} (1.0 +- 0.05), worst build "
        f"{max(time_f, time_p):.2f}s (max 60s)",
    )


def test_criterion_6_limit_set_invariance(report):
    worst = 0.0
    eps = 1e-3
    for spec in (
        limitset.GroupSpec.from_traces(3.0, 3.0, 3.0),
        limitset.GroupSpec.from_traces(3.0 + 0.5j, 3.0),
    ):
        cloud = limitset.enumerate_limit_set(spec, epsilon=eps)
        worst = max(worst, limitset.cloud_group_invariance(cloud, spec))
    ok = worst < 5.0 * eps
    assert report(
        6,
        ok,
        f"generator-mapped cloud distance {worst:.5f} (required < 5*eps = {5 * eps})",
    )


def _cycle_count(perm) -> int:
    n = len(perm) - 1
    seen = set()
    count = 0
    for s in range(1, n + 1):
        if s in seen:
            continue
        count += 1
        x = s
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return count


def test_criterion_7_dessin_euler_suite(report):
    results = []
    sa, sb = dessin.coset_permutations(dessin.fold_subgroup([W("a"), W("b")]))
    d = dessin.build_dessin(sa, sb)
    results.append((d.n_vertices, d.n_edges, d.n_faces, d.genus) == (2, 1, 1, 0))
    sa, sb = dessin.coset_permutations(
        dessin.fold_subgroup([W("aa"), W("b"), W("abA")])
    )
    d = dessin.build_dessin(sa, sb)
    results.append((d.n_vertices, d.n_edges, d.n_faces, d.genus) == (3, 2, 1, 0))
    torus = dessin.cycles_to_perm(3, [(1, 2, 3)])
    d = dessin.build_dessin(torus, torus)
    results.append((d.n_vertices, d.n_edges, d.n_faces, d.genus) == (2, 3, 1, 1))
    examples_ok = all(results)

    rng = np.random.default_rng(1007)
    fuzz_ok = True
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 10))
        p = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        q = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        seen = {1}
        stack = [1]
        while stack:
            x = stack.pop()
            for y in (p[x], q[x]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            continue
        d = dessin.build_dessin(p, q)
        v = _cycle_count(p) + _cycle_count(q)
        f = _cycle_count(dessin.compose(p, q))
        fuzz_ok = fuzz_ok and (
            d.n_vertices == v
            and d.n_faces == f
            and isinstance(d.genus, int)
            and d.genus >= 0
            and v - n + f == 2 - 2 * d.genus
        )
        checked += 1
    ok = examples_ok and fuzz_ok
    assert report(
        7,
        ok,
        f"named examples exact: {examples_ok}; 300 random transitive pairs "
        f"(n <= 9) match brute-force cycle counts: {fuzz_ok}",
    )


def test_criterion_8_quantum_net_suite(report):
    start = time.perf_counter()
    up = qnet.AreaState(1.0, 0.0)

    not_ok = True
    for index in range(4):
        amps = np.zeros(4, dtype=np.complex128)
        amps[index] = 1.0
        state = qnet.TensorState(2, amps)
        out = qnet.apply_gate(state, qnet.NotGate(1))
        not_ok = not_ok and out.amplitudes[index ^ 2] == 1.0
    cnot_ok = True
    for before, after in {0: 0, 1: 1, 2: 3, 3: 2}.items():
        amps = np.zeros(4, dtype=np.complex128)
        amps[before] = 1.0
        out = qnet.apply_gate(qnet.TensorState(2, amps), qnet.CNOTGate(1, 2))
        cnot_ok = cnot_ok and out.amplitudes[after] == 1.0

    rng = np.random.default_rng(1008)
    drift = 0.0
    for _ in range(5):
        circuit = qnet.random_circuit(rng, 10, 100)
        final = qnet.run_circuit([up] * 10, circuit)
        drift = max(drift, abs(final.norm - 1.0))

    bell = qnet.run_circuit(
        [up, up], [qnet.hadamard_gate(1), qnet.CNOTGate(1, 2)]
    )
    target = qnet.TensorState(2, np.array([2**-0.5, 0.0, 0.0, 2**-0.5]))
    bell_ok = qnet.states_allclose(bell, target, tol=1e-12, up_to_phase=True)
    elapsed = time.perf_counter() - start
    ok = not_ok and cnot_ok and drift <= 1e-9 and bell_ok and elapsed < 1.0
    assert report(
        8,
        ok,
        f"NOT/CNOT truth tables exact: {not_ok and cnot_ok}; norm drift over "
        f"100-gate circuits on 10 areas {drift:.3g} (tol 1e-9); Bell up to "
        f"phase within 1e-12: {bell_ok}; {elapsed:.2f}s (max 1s)",
    )


def test_criterion_9_cli_determinism(tmp_path, capfd, report):
    rep_path = tmp_path / "rep.txt"
    rep_path.write_text(
        "a 1.0,0.0 1.0,0.0 1.0,0.0 2.0,0.0\n"
        "b 1.0,0.0 -1.0,0.0 -1.0,0.0 2.0,0.0\n"
    )

    def run_all(tag):
        paths = {
            "ppm": tmp_path / f"{tag}.ppm",
            "cloud": tmp_path / f"{tag}_cloud.csv",
            "dot": tmp_path / f"{tag}.dot",
            "sweep": tmp_path / f"{tag}_sweep.csv",
            "amps": tmp_path / f"{tag}_amps.csv",
        }
        stdouts = []
        invocations = [
            ["limitset", "--traces", "3,3,3", "--eps", "2e-3",
             "--out", str(paths["ppm"]), "--csv", str(paths["cloud"])],
            ["dessin", "--subgroup", "aa,b,abA", "--dot", str(paths["dot"])],
            ["degenerate", "--t-values", "5,10,15,20", "--max-len", "3",
             "--csv", str(paths["sweep"]), "--report"],
            ["character", "--rep", str(rep_path), "--words", "a,b,ab,abAB",
             "--classify", "--theta"],
            ["qnet", "--random-circuit", "50", "--areas", "5", "--seed", "9",
             "--out", str(paths["amps"])],
        ]
        for argv in invocations:
            assert cli_main(argv) == 0
            stdouts.append(capfd.readouterr().out)
        return [paths[k].read_bytes() for k in sorted(paths)] + stdouts

    first = run_all("first")
    second = run_all("second")
    ok = first == second
    assert report(
        9,
        ok,
        "repeated CLI invocations byte-identical across PPM, cloud CSV, DOT, "
        f"sweep CSV, amplitude CSV, and stdout: {ok}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
