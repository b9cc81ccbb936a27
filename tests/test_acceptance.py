"""Acceptance suite: one test per release criterion, one PASS line each.

Criterion 6 exercises the full pipeline on a synthetic surrogate log; point
HBTM_EPM_CSV at the combined raw event-log CSV of the public 6-session
digital-electronics dataset to run the dataset-bound assertions as well.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from hbtm import (
    Corpus,
    FitConfig,
    Hyperparams,
    LabeledCorpus,
    ModelState,
    Posterior,
    Token,
    Trace,
    collapsed_log_joint,
    fit,
    generate,
    gibbs_sweep,
    init_state,
    kmeans,
    pearson,
    sample_params,
    synthetic_schema,
    welch_t_test,
)
from hbtm.cli import main

from conftest import greedy_match_traits, joint_log_likelihood, total_variation

HYPER1 = Hyperparams(1.0, 1.0, 1.0, 1.0)


def announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


# --------------------------------------------------------------------------
# 1. enumeration-oracle equivalence
# --------------------------------------------------------------------------


def test_criterion_1_enumeration_oracle():
    started = time.perf_counter()
    schema = synthetic_schema(3, 2, 2)
    corpus = Corpus(
        schema,
        (
            Trace("a", (Token(0, 0, 0), Token(1, 1, 0), Token(2, 0, 1))),
            Trace("b", (Token(0, 1, 1), Token(1, 0, 0), Token(2, 1, 0))),
        ),
    )
    num_traits = 2
    ntok = corpus.num_tokens
    assert ntok == 6

    # exact assignment posterior over all 2^6 configurations
    log_weights = []
    configs = list(itertools.product(range(num_traits), repeat=ntok))
    for flat in configs:
        state = ModelState(corpus, num_traits, flat, np.random.default_rng(0))
        log_weights.append(collapsed_log_joint(state, HYPER1))
    lw = np.array(log_weights)
    weights = np.exp(lw - lw.max())
    weights /= weights.sum()
    exact = np.zeros((ntok, num_traits))
    for flat, w in zip(configs, weights):
        for j, k in enumerate(flat):
            exact[j, k] += w

    # chain marginals over 200k post-burn-in sweeps
    state = init_state(
        corpus, FitConfig(num_traits=num_traits, sweeps=2, burn_in=1, sample_stride=1, seed=11)
    )
    for _ in range(2_000):
        gibbs_sweep(state, HYPER1)
    hits = np.zeros((ntok, num_traits))
    post_burn_in = 200_000
    for _ in range(post_burn_in):
        gibbs_sweep(state, HYPER1)
        for j, k in enumerate(state.z):
            hits[j, k] += 1
    empirical = hits / post_burn_in

    elapsed = time.perf_counter() - started
    assert np.abs(empirical - exact).max() <= 0.02
    assert elapsed < 60.0
    announce(1, "enumeration-oracle equivalence")


# --------------------------------------------------------------------------
# 2. parameter recovery
# --------------------------------------------------------------------------


def test_criterion_2_parameter_recovery():
    started = time.perf_counter()
    schema = synthetic_schema(15, 7, 5)
    hyper = Hyperparams(alpha=1.0, beta=0.1, gamma=0.1, delta=0.1)
    num_traits, num_traces, per_trace = 3, 300, 80

    params = sample_params(num_traits, num_traces, schema, hyper, seed=2024)
    labeled = generate(params, [per_trace] * num_traces, seed=2024)
    assert labeled.corpus.num_tokens == num_traces * per_trace

    config = FitConfig(
        num_traits=num_traits, sweeps=500, burn_in=300, sample_stride=10, seed=11, hyper=hyper
    )
    result = fit(labeled.corpus, config)

    perm = greedy_match_traits(result.posterior.phi, params.phi)
    tv_phi = float(
        np.mean(
            [total_variation(result.posterior.phi[perm[j]], params.phi[j]) for j in range(num_traits)]
        )
    )
    theta_matched = result.posterior.theta[:, perm]
    tv_theta = float(
        np.mean(
            [total_variation(theta_matched[m], params.theta[m]) for m in range(num_traces)]
        )
    )
    elapsed = time.perf_counter() - started
    assert tv_phi < 0.10, f"mean TV(phi) {tv_phi:.4f}"
    assert tv_theta < 0.15, f"mean TV(theta) {tv_theta:.4f}"
    assert elapsed < 600.0
    announce(2, "parameter recovery")


# --------------------------------------------------------------------------
# 3. state integrity
# --------------------------------------------------------------------------


def test_criterion_3_state_integrity():
    schema = synthetic_schema(8, 4, 3)
    hyper = Hyperparams(1.0, 0.2, 0.3, 0.3)
    params = sample_params(4, 25, schema, hyper, seed=3)
    labeled = generate(params, [24] * 25, seed=4)
    corpus = labeled.corpus
    sweeps = 500

    config = FitConfig(
        num_traits=4, sweeps=sweeps, burn_in=400, sample_stride=10, seed=8, hyper=hyper
    )
    state = init_state(corpus, config)
    tracked = []
    for _ in range(sweeps):
        gibbs_sweep(state, hyper)
        assert state.count_violations() == []
        tracked.append(collapsed_log_joint(state, hyper))
        rebuilt = ModelState(corpus, 4, state.z, np.random.default_rng(0))
        assert abs(collapsed_log_joint(rebuilt, hyper) - tracked[-1]) <= 1e-6

    # the fit path records exactly the same trace (same seed, same scan)
    result = fit(corpus, config)
    assert result.log_joint_trace == tracked
    assert result.diagnostics["retained_samples"] == 10
    announce(3, "state integrity")


# --------------------------------------------------------------------------
# 4. generative-equation fidelity
# --------------------------------------------------------------------------


def straight_line_log_joint(params, labeled, hyper):
    """Term-by-term log-space evaluation of the generative product equation."""

    def dirichlet_logpdf(row, conc):
        d = len(row)
        value = math.lgamma(d * conc) - d * math.lgamma(conc)
        for x in row:
            value += (conc - 1.0) * math.log(x)
        return value

    total = 0.0
    num_traits, num_events = params.phi.shape
    for i in range(num_traits):
        total += dirichlet_logpdf(params.phi[i], hyper.beta)
    for j in range(num_traits):
        for k in range(num_events):
            total += dirichlet_logpdf(params.psi[j, k], hyper.gamma)
            total += dirichlet_logpdf(params.tau[j, k], hyper.delta)
    for m, trace in enumerate(labeled.corpus.traces):
        total += dirichlet_logpdf(params.theta[m], hyper.alpha)
        for tok, z in zip(trace.tokens, labeled.assignments[m]):
            total += math.log(params.theta[m, z])
            total += math.log(params.phi[z, tok.event])
            total += math.log(params.psi[z, tok.event, tok.time_bin])
            total += math.log(params.tau[z, tok.event, tok.interaction_level])
    return total


def test_criterion_4_generative_equation_fidelity():
    rng = np.random.default_rng(44)
    for pair in range(20):
        num_traits = int(rng.integers(2, 5))
        num_events = int(rng.integers(2, 7))
        num_time_bins = int(rng.integers(2, 5))
        num_levels = int(rng.integers(2, 4))
        num_traces = int(rng.integers(2, 8))
        hyper = Hyperparams(*(float(v) for v in rng.uniform(0.5, 3.0, size=4)))
        schema = synthetic_schema(num_events, num_time_bins, num_levels)
        params = sample_params(num_traits, num_traces, schema, hyper, seed=1000 + pair)
        lengths = [int(rng.integers(1, 7)) for _ in range(num_traces)]
        labeled = generate(params, lengths, seed=2000 + pair)

        mine = joint_log_likelihood(params, labeled, hyper)
        oracle = straight_line_log_joint(params, labeled, hyper)
        assert abs(mine - oracle) <= 1e-9

        perm = rng.permutation(num_traits)
        permuted = Posterior(
            params.theta[:, perm], params.phi[perm], params.psi[perm], params.tau[perm]
        )
        inverse = np.argsort(perm)
        relabeled = tuple(
            tuple(int(inverse[z]) for z in row) for row in labeled.assignments
        )
        swapped = joint_log_likelihood(permuted, LabeledCorpus(labeled.corpus, relabeled), hyper)
        assert swapped == mine  # exact invariance
    announce(4, "generative-equation fidelity")


# --------------------------------------------------------------------------
# 5. statistics correctness
# --------------------------------------------------------------------------


def test_criterion_5_statistics_correctness():
    t_res = welch_t_test([1, 2, 3], [4, 5, 6])
    assert abs(t_res.t - (-3.6742346141747673)) <= 1e-9
    assert abs(t_res.df - 4.0) <= 1e-9
    assert abs(t_res.p - 0.0213116411) <= 1e-4

    p_res = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert abs(p_res.r - 0.8) <= 1e-9
    assert abs(p_res.p - 0.2) <= 1e-4

    rng = np.random.default_rng(5)
    cloud_a = rng.normal(0, 0.02, size=(25, 5)) + np.eye(5)[0]
    cloud_b = rng.normal(0, 0.02, size=(18, 5)) + np.eye(5)[4]
    points = np.vstack([cloud_a, cloud_b])
    result = kmeans(points, 2, seed=1)
    first, second = result.labels[0], result.labels[-1]
    assert first != second
    assert all(lab == first for lab in result.labels[:25])
    assert all(lab == second for lab in result.labels[25:])
    announce(5, "statistics correctness")


# --------------------------------------------------------------------------
# 6. end-to-end structural reproduction
# --------------------------------------------------------------------------

ACTIVITIES = [
    "Study_Es_1_1", "Deeds_Es_1_2", "Deeds_Es", "Deeds", "TextEditor_Es_2_1",
    "TextEditor_Es", "TextEditor", "Diagram", "Properties", "Study_Materials",
    "FSM_Es_1_1", "FSM_Related", "Aulaweb", "Blank", "Other", "NotInTheTaxonomy",
]

COLUMN_MAP = {
    "session": "session",
    "student_id": "student_Id",
    "activity": "activity",
    "start_time": "start_time",
    "end_time": "end_time",
    "mouse_clicks": ["mouse_wheel", "mouse_click_left", "mouse_click_right"],
    "keystrokes": "keystroke",
}


def write_surrogate_log(path, rng):
    rows = ["session,student_Id,activity,start_time,end_time,mouse_wheel,"
            "mouse_click_left,mouse_click_right,keystroke"]
    for session in range(1, 7):
        for student in range(1, 13):
            clock = 0.0
            for _ in range(35):
                activity = ACTIVITIES[int(rng.integers(len(ACTIVITIES)))]
                kind = rng.random()
                if kind < 0.08:
                    duration = float(rng.uniform(0.05, 0.9))  # transient, filtered
                elif kind < 0.12:
                    duration = float(rng.uniform(14001, 20000))  # frozen, filtered
                else:
                    duration = float(rng.uniform(1.0, 1400.0))
                start = clock
                clock += duration + 1.0
                counts = rng.integers(0, 40, size=4)
                if rng.random() < 0.02:
                    counts = counts + 5000  # exercises the top-level clamp
                rows.append(
                    f"{session},st{student},{activity},{start:.3f},{start + duration:.3f},"
                    f"{counts[0]},{counts[1]},{counts[2]},{counts[3]}"
                )
    path.write_text("\n".join(rows) + "\n")
    return len(rows) - 1


def run_cli(argv):
    return main([str(a) for a in argv])


def test_criterion_6_structural_reproduction(tmp_path):
    rng = np.random.default_rng(606)
    raw_csv = os.environ.get("HBTM_EPM_CSV")
    dataset_mode = bool(raw_csv)
    if not dataset_mode:
        raw_csv = tmp_path / "surrogate.csv"
        write_surrogate_log(raw_csv, rng)

    cmap = tmp_path / "columns.json"
    cmap.write_text(json.dumps(COLUMN_MAP))
    out_dir = tmp_path / "ingested"
    assert run_cli(["ingest", "--raw", raw_csv, "--column-map", cmap, "--out-dir", out_dir]) == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    sessions = sorted(summary["sessions"])
    assert len(sessions) == 6
    assert len(summary["event_counts"]) == 15
    assert len(summary["time_bin_counts"]) == 7
    assert len(summary["interaction_counts"]) == 5
    assert summary["parsed_rows"] == summary["raw_events"] + summary["rejected_rows"]
    assert summary["raw_events"] == summary["tokenized"] + summary["filtered"]
    if dataset_mode:
        assert summary["parsed_rows"] == 230318
        students = set()
        for session in sessions:
            corpus_lines = (out_dir / f"session_{session}.jsonl").read_text().splitlines()
            for line in corpus_lines:
                students.add(json.loads(line)["trace_id"].rsplit("_", 1)[0])
        assert len(students) == 115

    # fits at every published model size on the first session
    first = sessions[0]
    trait_grid = (5, 10, 15, 20)
    sweep_budget = {"sweeps": 2000, "burn_in": 1000, "stride": 10} if dataset_mode else {
        "sweeps": 40, "burn_in": 20, "stride": 5,
    }
    models = {}
    for num_traits in trait_grid:
        model_path = tmp_path / f"model_k{num_traits}.json"
        started = time.perf_counter()
        assert run_cli([
            "fit", "--corpus", out_dir / f"session_{first}.jsonl",
            "--traits", num_traits, "--sweeps", sweep_budget["sweeps"],
            "--burn-in", sweep_budget["burn_in"], "--stride", sweep_budget["stride"],
            "--seed", 1, "--out", model_path,
        ]) == 0
        elapsed = time.perf_counter() - started
        if dataset_mode:
            assert elapsed < 1800.0
        model = json.loads(model_path.read_text())
        assert len(model["posterior"]["phi"]) == num_traits
        assert len(model["posterior"]["phi"][0]) == 15
        models[num_traits] = (model_path, model)

    # grades for the session's traces; analyze must emit both report shapes
    model_path, model = models[20]
    ids = model["trace_ids"]
    grades_csv = tmp_path / "grades.csv"
    grades_csv.write_text(
        "trace_id,SA,SFE,FE\n"
        + "".join(
            f"{tid},{rng.integers(0, 6)},{rng.uniform(0, 10):.2f},{rng.integers(40, 101)}\n"
            for tid in ids
        )
    )
    report_path = tmp_path / "report.json"
    assert run_cli(["analyze", "--model", model_path, "--grades", grades_csv,
                    "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["ttests"]) == {"SA", "SFE", "FE"}  # one t-test block per grade type
    assert len(report["correlations"]) == 20 * 3  # full (trait, grade) grid
    computed = [c for c in report["correlations"] if "r" in c]
    assert computed and all(c["sign"] in "+-" for c in computed)
    assert report["config"]["threshold"] == 0.05

    # profile export: per-event distribution rows for one trait of the 20-trait model
    profile_path = tmp_path / "trait13.csv"
    assert run_cli(["export-trait", "--model", model_path, "--trait", 13,
                    "--event-labels", out_dir / "schema.json", "--out", profile_path]) == 0
    lines = profile_path.read_text().splitlines()
    assert len([ln for ln in lines if ln.startswith("event,")]) == 15
    assert len([ln for ln in lines if ln.startswith("time,")]) == 15 * 7
    assert len([ln for ln in lines if ln.startswith("interaction,")]) == 15 * 5

    announce(6, "structural reproduction" + (" [dataset]" if dataset_mode else " [surrogate]"))


# --------------------------------------------------------------------------
# 7. determinism
# --------------------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path):
    rng = np.random.default_rng(707)
    raw_csv = tmp_path / "raw.csv"
    write_surrogate_log(raw_csv, rng)
    cmap = tmp_path / "columns.json"
    cmap.write_text(json.dumps(COLUMN_MAP))

    def capture(paths):
        return [p.read_bytes() for p in paths]

    out_dir = tmp_path / "ingested"
    ingest_argv = ["ingest", "--raw", raw_csv, "--column-map", cmap, "--out-dir", out_dir]
    assert run_cli(ingest_argv) == 0
    ingest_files = sorted(out_dir.iterdir())
    first = capture(ingest_files)
    assert run_cli(ingest_argv) == 0
    assert capture(ingest_files) == first

    prefix = tmp_path / "syn"
    gen_argv = ["generate", "--traits", 3, "--traces", 5, "--tokens-per-trace", 6,
                "--seed", 2, "--out-prefix", prefix]
    gen_files = [prefix.with_suffix(".jsonl"), tmp_path / "syn.schema.json",
                 tmp_path / "syn.truth.json"]
    assert run_cli(gen_argv) == 0
    first = capture(gen_files)
    assert run_cli(gen_argv) == 0
    assert capture(gen_files) == first

    model = tmp_path / "model.json"
    fit_argv = ["fit", "--corpus", out_dir / "session_1.jsonl", "--traits", 4,
                "--sweeps", 30, "--burn-in", 10, "--stride", 4, "--seed", 5,
                "--out", model]
    assert run_cli(fit_argv) == 0
    first = capture([model])
    assert run_cli(fit_argv) == 0
    assert capture([model]) == first

    ids = json.loads(model.read_text())["trace_ids"]
    grades = tmp_path / "grades.csv"
    grades.write_text(
        "trace_id,SA,SFE,FE\n"
        + "".join(f"{tid},{m % 6},{m * 0.5},{60 + m}\n" for m, tid in enumerate(ids))
    )
    report = tmp_path / "report.json"
    analyze_argv = ["analyze", "--model", model, "--grades", grades, "--out", report]
    assert run_cli(analyze_argv) == 0
    first = capture([report])
    assert run_cli(analyze_argv) == 0
    assert capture([report]) == first

    profile = tmp_path / "profile.csv"
    export_argv = ["export-trait", "--model", model, "--trait", 1, "--out", profile]
    assert run_cli(export_argv) == 0
    first = capture([profile])
    assert run_cli(export_argv) == 0
    assert capture([profile]) == first

    announce(7, "determinism")
