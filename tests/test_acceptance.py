"""End-to-end acceptance gate.

Each test is one release criterion at its pinned tolerance; the conftest hook
prints one pass/fail line per criterion at the end of the run. Numbered to
match the release checklist order.
"""

import time

import numpy as np

from aucmax.data import GaussianToySpec, gen_gaussian_toy, load_csv, make_imbalanced, save_csv
from aucmax.experiments import (
    alpha_constraint_scenario,
    ablate_alpha_constraint,
    noise_robustness_scenario,
    prepare_data,
    records_to_csv,
    run_scenario,
    two_stage_protocol,
)
from aucmax.losses import (
    AuxVars,
    SurrogateSpec,
    batch_score_normalize,
    bsn_vjp,
    cross_entropy_loss_and_coeffs,
    focal_loss_and_coeffs,
    margin_loss_value,
    minmax_grads,
    minmax_value,
    optimal_aux,
    pairwise_square_loss,
    square_loss_decomposition,
)
from aucmax.metrics import accuracy, auc_score
from aucmax.models import (
    ModelSpec,
    forward_batch,
    init_params,
    load_model,
    output_layer_slice,
    save_model,
)
from aucmax.optimizer import (
    MinMaxState,
    PesgConfig,
    from_scratch_pesg,
    on_epoch_end,
    pesg_step,
    pesg_train,
    sgd_train,
    two_stage_train,
)
from aucmax.verify import (
    WalkthroughCase,
    auc_pair_count,
    finite_diff,
    run_walkthrough,
)


def _random_split(rng, lo=2, hi=50):
    n_pos = int(rng.integers(lo, hi + 1))
    n_neg = int(rng.integers(lo, hi + 1))
    sp = 2.0 * rng.standard_normal(n_pos)
    sn = 2.0 * rng.standard_normal(n_neg)
    return sp, sn


def test_criterion_01_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        sp, sn = _random_split(rng)
        total = pairwise_square_loss(sp, sn)
        a1, a2, a3 = square_loss_decomposition(sp, sn)
        assert abs(total - (a1 + a2 + a3)) <= 1e-12 * (1.0 + abs(total))
    assert time.perf_counter() - start < 1.0


def test_criterion_02_minmax_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(200):
        sp, sn = _random_split(rng)
        scores = np.concatenate([sp, sn])
        labels = np.concatenate([np.ones(sp.size, dtype=int), -np.ones(sn.size, dtype=int)])
        p = sp.size / scores.size
        m = float(rng.uniform(0.05, 1.5))

        aux = optimal_aux(sp, sn, "auc_margin", m=m)
        got = minmax_value(scores, labels, aux, SurrogateSpec("auc_margin", p=p, m=m))
        want = p * (1 - p) * margin_loss_value(sp, sn, m)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

        aux_s = optimal_aux(sp, sn, "auc_square")
        got_s = minmax_value(scores, labels, aux_s, SurrogateSpec("auc_square", p=p))
        want_s = p * (1 - p) * pairwise_square_loss(sp, sn)
        assert abs(got_s - want_s) <= 1e-10 * (1.0 + abs(want_s))
    assert time.perf_counter() - start < 1.0


def test_criterion_03_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    tol = 1e-5

    def check(analytic, fd):
        rel = np.abs(analytic - fd) / (1.0 + np.abs(fd))
        assert np.max(rel) < tol

    for bsn in (False, True):
        for kind, m in (("auc_margin", 0.7), ("auc_square", 1.0)):
            spec = SurrogateSpec(kind, p=0.3, m=m, bsn=bsn)
            done = 0
            while done < 50:
                sp, sn = _random_split(rng, 2, 12)
                scores = np.concatenate([sp, sn])
                labels = np.concatenate([np.ones(sp.size, dtype=int),
                                         -np.ones(sn.size, dtype=int)])
                if abs(m + sn.mean() - sp.mean()) <= 1e-3:  # hinge-kink neighborhood
                    continue
                aux = AuxVars(*rng.standard_normal(3))
                n = scores.size

                def value(theta):
                    s = theta[:n]
                    s_used = batch_score_normalize(s) if bsn else s
                    return minmax_value(s_used, labels, AuxVars(*theta[n:]), spec)

                fd = finite_diff(value, np.concatenate([scores, [aux.a, aux.b, aux.alpha]]))
                s_used = batch_score_normalize(scores) if bsn else scores
                g = minmax_grads(s_used, labels, aux, spec)
                coeffs = bsn_vjp(scores, g.g_coeffs) if bsn else g.g_coeffs
                check(np.concatenate([coeffs, [g.g_a, g.g_b, g.g_alpha]]), fd)
                done += 1

    for _ in range(50):
        sp, sn = _random_split(rng, 2, 12)
        scores = np.concatenate([sp, sn])
        labels = np.concatenate([np.ones(sp.size, dtype=int), -np.ones(sn.size, dtype=int)])
        _, coeffs = cross_entropy_loss_and_coeffs(scores, labels)
        check(coeffs, finite_diff(lambda s: cross_entropy_loss_and_coeffs(s, labels)[0],
                                  scores))
        _, fcoeffs = focal_loss_and_coeffs(scores, labels, 0.25, 2.0)
        check(fcoeffs, finite_diff(lambda s: focal_loss_and_coeffs(s, labels, 0.25, 2.0)[0],
                                   scores))
    assert time.perf_counter() - start < 10.0


def test_criterion_04_walkthroughs():
    tol = 1e-12
    r = run_walkthrough(WalkthroughCase("square", w=1.0, x=1.0, y_observed=1,
                                        a=0.5, b=-0.5, merged_step=0.1))
    assert abs(r.factor - 0.5) <= tol
    assert abs(r.w_next - 0.9) <= tol
    assert abs(r.score_next - 0.9) <= tol

    r = run_walkthrough(WalkthroughCase("margin", w=1.0, x=0.25, y_observed=1,
                                        a=0.0, b=-0.5, m=1.0, merged_step=0.1))
    assert abs(r.factor - (-0.25)) <= tol
    assert abs(r.w_next - 1.025) <= tol
    assert abs(r.score_next - 0.25625) <= tol

    r = run_walkthrough(WalkthroughCase("square", w=1.0, x=0.25, y_observed=-1,
                                        a=0.25, b=-0.5, y_true=1))
    assert abs(r.factor - 1.0) <= tol

    for m in (0.1, 0.5, 1.0):
        r = run_walkthrough(WalkthroughCase("margin", w=1.0, x=0.25, y_observed=-1,
                                            a=0.25, b=-0.5, m=m, y_true=1,
                                            assume_margin_violated=True))
        assert abs(r.factor - m) <= tol


def test_criterion_05_auc_metric():
    rng = np.random.default_rng(105)
    for trial in range(200):
        n_pos = int(rng.integers(1, 40))
        n_neg = int(rng.integers(1, 40))
        scores = rng.normal(size=n_pos + n_neg)
        if trial % 3 == 0:
            scores = np.round(scores, 1)
        labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
        for policy in ("half", "geq"):
            assert auc_score(scores, labels, tie_policy=policy).auc == \
                auc_pair_count(scores, labels, tie_policy=policy)

    pos = [0.9, 0.8, 0.7]
    neg = [0.6, 0.6, 0.47, 0.47, 0.45, 0.43, 0.42] + \
          [round(0.12 + 0.02 * i, 2) for i in range(14)] + [0.1]
    scores = np.array(pos + neg)
    labels = np.array([1] * 3 + [-1] * 22)
    assert auc_score(scores, labels).auc == 1.0
    assert abs(accuracy(scores, labels, 0.5) - 0.92) <= 1e-12


def test_criterion_06_pesg_correctness(tmp_path):
    # alpha stays in the nonnegative orthant at every iteration
    base = gen_gaussian_toy(GaussianToySpec(n_pos=200, n_neg=400, seed=61))
    train, _ = make_imbalanced(base, 0.1, seed=62)
    mspec = ModelSpec("linear", 2)
    spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
    cfg = PesgConfig(eta0=0.2, decay_epochs=(3, 5), decay_factor=2.0, project_alpha=True)
    state = MinMaxState(params=init_params(mspec, 1, 0.1), aux=AuxVars(), eta=cfg.eta0)
    rng = np.random.default_rng(63)
    from aucmax.models import backward_vjp

    iterates = []
    for epoch in range(1, 7):
        for _ in range(8):
            idx = rng.permutation(len(train))[:32]
            scores = forward_batch(mspec, state.params, train.X[idx])
            g = minmax_grads(scores, train.y[idx], state.aux, spec)
            pesg_step(state, backward_vjp(mspec, state.params, train.X[idx], g.g_coeffs),
                      g, cfg)
            assert state.aux.alpha >= 0.0
            iterates.append(state.params.copy())
        stage_iterates = list(iterates)
        on_epoch_end(state, epoch, cfg)
        # step-size schedule and stage-average reference, independently tracked
        n_decays = sum(1 for d in cfg.decay_epochs if d <= epoch)
        assert state.eta == cfg.eta0 / cfg.decay_factor**n_decays
        if epoch in cfg.decay_epochs:
            assert np.allclose(state.ref_params, np.mean(stage_iterates, axis=0),
                               rtol=0, atol=1e-15)
            iterates = []

    # full determinism: identical seeds produce byte-identical metrics CSVs
    test = gen_gaussian_toy(GaussianToySpec(n_pos=100, n_neg=400, seed=64))
    csvs = []
    for _ in range(2):
        _, _, recs = pesg_train(mspec, init_params(mspec, 2, 0.1), train, spec,
                                cfg, epochs=5, batch_size=32, seed=65, test_data=test)
        csvs.append(records_to_csv(recs))
    assert csvs[0] == csvs[1]


def test_criterion_07_optimization_sanity():
    start = time.perf_counter()
    base = gen_gaussian_toy(GaussianToySpec(n_pos=500, n_neg=900, seed=71))
    train, _ = make_imbalanced(base, 0.10, seed=72)
    assert len(train) == 1000
    test = gen_gaussian_toy(GaussianToySpec(n_pos=1000, n_neg=9000, seed=73))
    mspec = ModelSpec("linear", 2)
    spec = SurrogateSpec("auc_margin", p=train.p, m=0.5)
    _, _, records = pesg_train(mspec, init_params(mspec, 74, 0.1), train, spec,
                               PesgConfig(eta0=0.1, weight_decay=1e-4),
                               epochs=30, batch_size=64, seed=75, test_data=test)
    assert records[-1].test_auc >= 0.99
    assert time.perf_counter() - start < 10.0


def test_criterion_08_noise_robustness():
    start = time.perf_counter()
    summary = run_scenario(noise_robustness_scenario(seeds=range(10)))
    by = summary.by_loss()
    square = {c.seed: c.final_test_auc for c in by["auc_square"]}
    margin = {c.seed: c.final_test_auc for c in by["auc_margin"]}
    deltas = [margin[s] - square[s] for s in square]
    assert len(deltas) == 10
    assert float(np.mean(deltas)) > 0.0
    assert sum(d > 0 for d in deltas) >= 7
    assert time.perf_counter() - start < 300.0


def test_criterion_09_alpha_constraint():
    start = time.perf_counter()
    summary = ablate_alpha_constraint(alpha_constraint_scenario(seeds=range(10)))
    by = summary.by_loss()
    projected = by["auc_margin_proj"]
    unprojected = by["auc_margin_noproj"]
    assert len(projected) == len(unprojected) == 10
    mean_proj = float(np.mean([c.final_test_auc for c in projected]))
    mean_noproj = float(np.mean([c.final_test_auc for c in unprojected]))
    assert mean_proj >= mean_noproj
    # the unconstrained dual leaves the nonnegative orthant on this data
    min_alphas = [min(r.alpha for r in c.records) for c in unprojected]
    assert all(a < 0.0 for a in min_alphas)
    for cell in projected:
        assert min(r.alpha for r in cell.records) >= 0.0
    assert time.perf_counter() - start < 300.0


def test_criterion_10_two_stage():
    proto = two_stage_protocol()
    mspec = proto["model"]

    # structural half: reinitialization touches only the output layer
    train, test = prepare_data(proto["data"], seed=0)
    spec = SurrogateSpec("auc_margin", p=train.p, m=proto["margin"])
    params, _, _ = two_stage_train(mspec, train, proto["stage1"], spec, proto["pesg"],
                                   stage2_epochs=0, stage2_batch_size=proto["batch_size"],
                                   seed=0)
    seeds = np.random.SeedSequence(0).generate_state(4)
    pretrained, _ = sgd_train(mspec, init_params(mspec, int(seeds[0]), 0.1), train,
                              SurrogateSpec("cross_entropy", p=train.p),
                              proto["stage1"], int(seeds[1]))
    sl = output_layer_slice(mspec)
    assert np.array_equal(params[: sl.start], pretrained[: sl.start])

    # behavioral half: the warm start never hurts on the noisy toy, on average
    two_stage_final, scratch_final = [], []
    for seed in range(10):
        train, test = prepare_data(proto["data"], seed)
        spec = SurrogateSpec("auc_margin", p=train.p, m=proto["margin"])
        _, _, r2 = two_stage_train(mspec, train, proto["stage1"], spec, proto["pesg"],
                                   proto["epochs"], proto["batch_size"], seed,
                                   test_data=test)
        _, _, r1 = from_scratch_pesg(mspec, train, spec, proto["pesg"],
                                     proto["epochs"], proto["batch_size"], seed,
                                     test_data=test)
        two_stage_final.append(r2[-1].test_auc)
        scratch_final.append(r1[-1].test_auc)
    assert float(np.mean(two_stage_final)) >= float(np.mean(scratch_final))


def test_criterion_11_interfaces(tmp_path, capsys):
    # dataset CSV round-trip
    base = gen_gaussian_toy(GaussianToySpec(n_pos=40, n_neg=60, seed=111))
    kept, removed = make_imbalanced(base, 0.2, seed=112)
    from aucmax.data import inject_noise

    noisy = inject_noise(kept, removed, rate=0.1, seed=113)
    dpath = tmp_path / "round.csv"
    save_csv(noisy, dpath)
    back = load_csv(dpath)
    assert np.array_equal(back.X, noisy.X)
    assert np.array_equal(back.y, noisy.y)
    assert np.array_equal(back.y_true, noisy.y_true)

    # model file round-trip
    mspec = ModelSpec("mlp", 2, 5, 1.0)
    params = init_params(mspec, 114, 3.0) * 10.0 ** np.arange(-8, mspec.n_params - 8)
    mpath = tmp_path / "round.model"
    save_model(mpath, mspec, params)
    spec2, params2 = load_model(mpath)
    assert spec2 == mspec and np.array_equal(params, params2)

    # the verify subcommand runs the oracle suite and exits 0
    from aucmax.cli import main

    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "7/7 checks passed" in out
    assert "FAIL" not in out
