"""Tests for the TRMMA DualFormer + decoder model (§V)."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autodiff import Tensor
from repro.nn.optim import Adam
from repro.trmma.features import build_infer_sample, build_train_sample
from repro.trmma.model import TRMMAModel, TrmmaSample


@pytest.fixture(scope="module")
def sample(net_small, trajs_small, pt_norm):
    return build_train_sample(net_small, trajs_small[0], pt_norm)


@pytest.fixture(scope="module")
def model(net_small):
    return TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0)


def test_encode_shape(model, sample):
    H = model.encode(sample)
    assert H.shape == (len(sample.route), model.d_h)


def test_df_ablation_ignores_trajectory(net_small, sample):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0, use_dualformer=False)
    H1 = m.encode(sample).data
    import copy

    s2 = copy.deepcopy(sample)
    s2.obs_feats = s2.obs_feats + 0.1
    assert np.allclose(m.encode(s2).data, H1)  # H = R only
    mf = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0, use_dualformer=True)
    assert not np.allclose(mf.encode(s2).data, mf.encode(sample).data)


def test_expected_offsets_match_observed_anchors(sample):
    exp = TRMMAModel.expected_offsets(sample)
    assert len(exp) == sample.n_ticks
    start = sample.route_feats[:, 1]
    ln = sample.route_feats[:, 0]
    for j, tick in enumerate(sample.obs_tick):
        off = start[sample.obs_pos[j]] + sample.obs_feats[j, 4] * ln[sample.obs_pos[j]]
        assert exp[tick] == pytest.approx(off, abs=1e-9)
    assert (np.diff(exp) >= -1e-9).all()  # monotone along the route


def test_loss_finite_and_counts_missing(model, sample):
    l, n = model.loss(sample)
    assert np.isfinite(l.item())
    assert n == sample.n_ticks - len(sample.obs_tick)


def test_loss_decreases_on_overfit(net_small, sample):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=2)
    opt = Adam(m.parameters(), lr=3e-3)
    first = m.loss(sample)[0].item()
    for _ in range(25):
        opt.zero_grad()
        l, _ = m.loss(sample)
        l.backward()
        opt.step()
    assert m.loss(sample)[0].item() < first


def test_recover_shapes_and_constraints(model, sample):
    segs, ratios = model.recover(sample)
    assert len(segs) == sample.n_ticks
    assert ((ratios >= 0) & (ratios < 1)).all()
    route = sample.route.tolist()
    pos = [route.index(s) for s in segs]
    assert (np.diff(pos) >= 0).all()  # Eq. (17) order constraint


def test_recover_pins_observed_points(model, sample):
    segs, ratios = model.recover(sample)
    for j, tick in enumerate(sample.obs_tick):
        assert segs[tick] == sample.route[sample.obs_pos[j]]
        assert ratios[tick] == pytest.approx(sample.obs_feats[j, 4])


def test_recover_on_infer_sample(net_small, trajs_small, pt_norm, model):
    tr = trajs_small[1]
    obs = np.where(tr.observed)[0]
    s = build_infer_sample(net_small, pt_norm, tr.x[obs], tr.y[obs], tr.t[obs], tr.t0,
                           obs, len(tr.t), 15.0, tr.seg[obs], tr.ratio[obs], tr.route)
    segs, ratios = model.recover(s)
    assert set(segs.tolist()) <= set(tr.route.tolist())


def test_model_pickles(model, sample):
    clone = pickle.loads(pickle.dumps(model))
    a, _ = clone.recover(sample)
    b, _ = model.recover(sample)
    assert np.array_equal(a, b)


def test_decode_feats_mark_containing_segment(sample):
    exp = TRMMAModel.expected_offsets(sample)
    tick = int(sample.n_ticks // 2)
    feats = TRMMAModel._decode_feats(sample, float(sample.tick_tau[tick]), float(exp[tick]))
    inside = np.where(feats[:, 2] > 0)[0]
    assert len(inside) >= 1  # some segment contains the expected offset
    k = inside[0]
    assert 0 <= feats[k, 0] < 1


# -- the numpy decode loop against the autodiff oracle ------------------------
def _expected_offsets_loop(s):
    """One ``searchsorted`` per observed point and per tick: the scalar form
    of :meth:`TRMMAModel.expected_offsets`."""
    ln = np.maximum(s.route_feats[:, 0], 1e-9)
    start = s.route_feats[:, 1]
    tw = np.maximum(s.route_timew, 1e-9)
    cum_t = np.concatenate([[0.0], np.cumsum(tw)])

    def off2t(off):
        k = int(np.clip(np.searchsorted(start, off, side="right") - 1, 0, len(ln) - 1))
        return cum_t[k] + np.clip((off - start[k]) / ln[k], 0, 1) * tw[k]

    def t2off(tv):
        k = int(np.clip(np.searchsorted(cum_t, tv, side="right") - 1, 0, len(ln) - 1))
        return start[k] + np.clip((tv - cum_t[k]) / tw[k], 0, 1) * ln[k]

    off_obs = start[s.obs_pos] + s.obs_feats[:, 4] * ln[s.obs_pos]
    t_obs = np.array([off2t(o) for o in off_obs])
    t_ticks = np.interp(np.arange(s.n_ticks), s.obs_tick.astype(float), t_obs)
    return np.array([t2off(tv) for tv in t_ticks])


def _recover_oracle(model, s):
    """Algorithm 2 one tick at a time through the autodiff ops that ``loss``
    trains (``_step_scores``, ``_step_ratio``, ``gru``)."""
    H = model.encode(s)
    h = H.mean(axis=0)
    obs_by_tick = {int(t): i for i, t in enumerate(s.obs_tick)}
    exp_offs = _expected_offsets_loop(s)
    segs = np.zeros(s.n_ticks, dtype=np.int64)
    ratios = np.zeros(s.n_ticks)
    k_prev = 0
    for tick in range(s.n_ticks):
        oi = obs_by_tick.get(tick)
        if oi is not None:
            k = int(s.obs_pos[oi])
            r = float(s.obs_feats[oi, 4])
        else:
            tau = float(s.tick_tau[tick])
            w = model._step_scores(H, h, s, tau, float(exp_offs[tick]))
            wd = w.data.copy()
            wd[:k_prev] = -np.inf
            k = int(np.argmax(wd))
            r = float(model._step_ratio(H, h, w, s, tau, float(exp_offs[tick]), k).data[0])
        segs[tick] = s.route[k]
        ratios[tick] = r
        k_prev = max(k_prev, k)
        h = model.gru(model._gru_in(H, k, r, float(s.tick_tau[tick])), h)
    return segs, ratios


@pytest.fixture(scope="module")
def infer_sample(net_small, trajs_small, pt_norm):
    tr = trajs_small[1]
    obs = np.where(tr.observed)[0]
    return build_infer_sample(net_small, pt_norm, tr.x[obs], tr.y[obs], tr.t[obs], tr.t0,
                              obs, len(tr.t), 15.0, tr.seg[obs], tr.ratio[obs], tr.route)


@pytest.fixture(scope="module")
def train_samples(net_small, trajs_small, pt_norm):
    samples = [build_train_sample(net_small, tr, pt_norm) for tr in trajs_small]
    return [s for s in samples if s is not None]


@pytest.fixture(scope="module", params=[True, False], ids=["dualformer", "no-dualformer"])
def trained_model(request, net_small, train_samples):
    """A few Adam steps, so the scores are not those of the initial weights."""
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=4, use_dualformer=request.param)
    opt = Adam(m.parameters(), lr=3e-3)
    for s in train_samples[2:6]:
        opt.zero_grad()
        m.loss(s)[0].backward()
        opt.step()
    return m


@pytest.mark.parametrize("which", ["train", "infer"])
def test_recover_matches_autodiff_oracle(trained_model, train_samples, infer_sample, which):
    for s in train_samples if which == "train" else [infer_sample]:
        segs, ratios = trained_model.recover(s)
        segs_o, ratios_o = _recover_oracle(trained_model, s)
        assert np.array_equal(segs, segs_o)
        assert np.abs(ratios - ratios_o).max() <= 1e-9


def test_expected_offsets_equal_scalar_loop(train_samples, infer_sample):
    for s in train_samples + [infer_sample]:
        assert np.array_equal(TRMMAModel.expected_offsets(s), _expected_offsets_loop(s))


def test_decode_feats_vectorised_rows_equal_per_tick(sample):
    exp = TRMMAModel.expected_offsets(sample)
    feats = TRMMAModel._decode_feats(sample, sample.tick_tau, exp)
    assert feats.shape == (sample.n_ticks, len(sample.route), 4)
    for tick in range(sample.n_ticks):
        one = TRMMAModel._decode_feats(sample, float(sample.tick_tau[tick]), float(exp[tick]))
        assert np.array_equal(feats[tick], one)


def test_recover_builds_no_graph(model, sample, monkeypatch):
    made = []
    orig = Tensor._make

    def spy(self, data, parents, backward):
        out = orig(self, data, parents, backward)
        made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", spy)
    model.recover(sample)
    assert made and not any(t._parents or t.requires_grad for t in made)


# -- properties of recover on generated samples (Alg. 2, Eq. 17) ---------------
@st.composite
def trmma_samples(draw, n_segments: int):
    """Random, self-consistent inference samples: a route of 1-8 distinct
    segments, 2-30 ticks, observed ticks always including the first and
    last, observed route positions non-decreasing."""
    route = np.array(
        draw(st.lists(st.integers(0, n_segments - 1), min_size=1, max_size=8, unique=True)),
        dtype=np.int64,
    )
    lr = len(route)
    lens = np.array(draw(st.lists(st.floats(1.0, 500.0), min_size=lr, max_size=lr)))
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    route_feats = np.stack([lens / cum[-1], cum[:-1] / cum[-1]], axis=1)
    tpm = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=lr, max_size=lr)))
    n_ticks = draw(st.integers(2, 30))
    inner = draw(st.sets(st.integers(1, n_ticks - 2), max_size=n_ticks - 2)) if n_ticks > 2 else set()
    obs_tick = np.array(sorted({0, n_ticks - 1} | inner), dtype=np.int64)
    n_obs = len(obs_tick)
    obs_pos = np.sort(np.array(draw(st.lists(st.integers(0, lr - 1), min_size=n_obs, max_size=n_obs))))
    obs_ratio = np.array(draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=n_obs, max_size=n_obs)))
    tau = np.arange(n_ticks) / (n_ticks - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return TrmmaSample(
        obs_feats=np.column_stack([rng.random((n_obs, 2)), rng.random(n_obs), tau[obs_tick], obs_ratio]),
        obs_seg=route[obs_pos],
        obs_pos=obs_pos.astype(np.int64),
        obs_tick=obs_tick,
        route=route,
        route_feats=route_feats,
        route_timew=lens * tpm / (lens * tpm).sum(),
        n_ticks=n_ticks,
        tick_tau=tau,
        tick_pos=np.full(n_ticks, -1, dtype=np.int64),
        tick_ratio=np.zeros(n_ticks),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recover_properties(model, net_small, data):
    s = data.draw(trmma_samples(net_small.n_segments))
    segs, ratios = model.recover(s)
    assert len(segs) == len(ratios) == s.n_ticks
    assert ((ratios >= 0) & (ratios < 1)).all()
    route = s.route.tolist()
    assert set(segs.tolist()) <= set(route)
    pos = np.array([route.index(g) for g in segs])
    observed = set(s.obs_tick.tolist())
    for tick in range(1, s.n_ticks):
        # Eq. (17) bounds a decoded tick from below only: it never lies
        # before any earlier tick, but may lie past the next observed one
        if tick not in observed:
            assert pos[tick] >= pos[:tick].max()
    for j, tick in enumerate(s.obs_tick):
        assert segs[tick] == s.route[s.obs_pos[j]]
        assert ratios[tick] == s.obs_feats[j, 4]
