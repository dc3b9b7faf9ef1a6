"""Corpus generator invariants and its sequential reference, statistical
features against a brute-force tally, maturity buckets and the CSV
roundtrip."""

import dataclasses
import warnings

import numpy as np
import pytest

from gatesid import synthcorpus
from conftest import small_corpus_config
from oracle_corpus import reference_corpus

CORPUS_ARRAYS = ("item_content", "item_age", "item_quality", "item_topic", "item_factor",
                 "user_pref", "user_topic", "user_factor", "imp_user", "imp_item",
                 "imp_hist", "imp_click", "imp_pay", "imp_ts")


# ---------------------------------------------------------------------------
# generation invariants


def test_generation_deterministic():
    cfg = small_corpus_config(n_impressions=800)
    a = synthcorpus.generate_corpus(cfg, seed=5)
    b = synthcorpus.generate_corpus(cfg, seed=5)
    for name in CORPUS_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    c = synthcorpus.generate_corpus(cfg, seed=6)
    assert not np.array_equal(a.imp_click, c.imp_click)


def test_counts_match_config(small_corpus):
    cfg = small_corpus.config
    assert small_corpus.item_content.shape == (cfg.n_items, cfg.content_dim)
    assert small_corpus.item_factor.shape == (cfg.n_items, cfg.factor_dim)
    assert small_corpus.user_pref.shape == (cfg.n_users, cfg.content_dim)
    assert small_corpus.imp_user.shape == (cfg.n_impressions,)
    assert small_corpus.imp_hist.shape == (cfg.n_impressions, cfg.l_max)
    assert small_corpus.imp_item.min() >= 1
    assert small_corpus.imp_item.max() <= cfg.n_items
    assert np.all(np.diff(small_corpus.imp_ts) >= 0)  # time ordered


def test_unit_norm_vectors(small_corpus):
    for m in (small_corpus.item_content, small_corpus.item_factor,
              small_corpus.user_pref, small_corpus.user_factor):
        assert np.linalg.norm(m, axis=1) == pytest.approx(np.ones(m.shape[0]))


def test_pay_implies_click(small_corpus):
    assert np.all(small_corpus.imp_click[small_corpus.imp_pay == 1] == 1)


def test_invalid_config_rejected():
    for key in ("n_items", "n_users", "n_impressions", "l_max"):
        with pytest.raises(ValueError, match="must be positive"):
            synthcorpus.generate_corpus(small_corpus_config(**{key: 0}))


# the conftest small config, variations of it that take the generator's
# edge paths, and the corpus shapes of the benchmark workloads (perfbench/run.py)
REFERENCE_CONFIGS = {
    "small": small_corpus_config(),
    "desk": synthcorpus.CorpusConfig(n_users=100, n_items=800, n_impressions=12000),
    "ref_quantizer": synthcorpus.CorpusConfig(n_users=100, n_items=2600, n_impressions=6000),
    "ref_batch": synthcorpus.CorpusConfig(n_users=170, n_items=2000, n_impressions=20000),
    "l_max-1": small_corpus_config(l_max=1),  # the click buffer trims every few clicks
    "l_max-2": small_corpus_config(l_max=2),
    "all-cold": small_corpus_config(cold_fraction=1.0),  # no mature history: collab fallback
    "one-user": small_corpus_config(n_users=1, n_impressions=500),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CONFIGS))
def test_generator_matches_sequential_reference_bitwise(case):
    cfg = REFERENCE_CONFIGS[case]
    got = synthcorpus.generate_corpus(cfg, seed=7)
    want = reference_corpus(cfg, seed=7)
    for name in CORPUS_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    if case.startswith("l_max"):
        # the trim path ran: some user clicked more than 4 * l_max times
        clicks = np.bincount(got.imp_user[got.imp_click == 1])
        assert clicks.max() > 4 * cfg.l_max
    if case == "all-cold":
        assert got.item_age.max() <= 60


@pytest.mark.parametrize("case", sorted(REFERENCE_CONFIGS))
def test_state_process_writes_only_histories_clicks_and_pays(case):
    """The rounds fill in imp_hist, imp_click and imp_pay; every other corpus
    array and every input keeps its drawn bits, and user_pref stays the
    normalised day-mean of the drawn preference."""
    corpus, drift = synthcorpus._draw_corpus(REFERENCE_CONFIGS[case], 7)
    drawn = {name: getattr(corpus, name).copy() for name in CORPUS_ARRAYS}
    inputs = [a.copy() for a in drift]
    synthcorpus._play_rounds(corpus, *drift)
    for name in sorted(set(CORPUS_ARRAYS) - {"imp_hist", "imp_click", "imp_pay"}):
        got = getattr(corpus, name)
        assert got.dtype == drawn[name].dtype and got.tobytes() == drawn[name].tobytes(), name
    for got, want in zip(drift, inputs):
        assert got.tobytes() == want.tobytes()
    pref = inputs[0].mean(axis=1)
    pref /= np.linalg.norm(pref, axis=1, keepdims=True)
    assert corpus.user_pref.tobytes() == pref.tobytes()


def test_history_is_past_clicks_without_target(small_corpus):
    """Replaying the log: each history holds previously clicked items of the
    same user, excludes the current target, and pads on the left."""
    clicked = {u: set() for u in range(small_corpus.n_users)}
    for i in range(small_corpus.imp_user.size):
        u = small_corpus.imp_user[i]
        h = small_corpus.imp_hist[i]
        nz = h[h > 0]
        pad = h.size - nz.size
        assert np.all(h[:pad] == 0)  # zeros form a prefix, recent items last
        assert small_corpus.imp_item[i] not in nz
        assert set(nz.tolist()) <= clicked[u]
        if small_corpus.imp_click[i]:
            clicked[u].add(int(small_corpus.imp_item[i]))


def test_cold_ctr_tracks_content_affinity():
    """On young targets, clicks follow the best content match between the
    target and the visible history."""
    corpus = synthcorpus.generate_corpus(seed=0)
    ages = corpus.item_age[corpus.imp_item - 1]
    cold = np.flatnonzero(ages < corpus.config.new_age_days)
    affs, clicks = [], []
    for i in cold:
        h = corpus.imp_hist[i]
        h = h[h > 0]
        if h.size == 0:
            continue
        target = corpus.item_content[corpus.imp_item[i] - 1]
        affs.append((corpus.item_content[h - 1] @ target).max())
        clicks.append(corpus.imp_click[i])
    r = np.corrcoef(np.array(affs), np.array(clicks, dtype=float))[0, 1]
    assert r >= 0.3


# ---------------------------------------------------------------------------
# statistical features


def _brute_force_stats(corpus, window=7):
    """Independent per-impression tally of (duration, exposures_7d, clicks_7d),
    the counts over the window days before the impression's day."""
    n = corpus.imp_user.size
    out = np.zeros((n, 3))
    for i in range(n):
        it = corpus.imp_item[i]
        day = corpus.imp_ts[i]
        days_back = corpus.config.n_days - 1 - day
        out[i, 0] = max(0, corpus.item_age[it - 1] - days_back)
        sel = (corpus.imp_item == it) & (corpus.imp_ts >= day - window) & (corpus.imp_ts < day)
        out[i, 1] = sel.sum()
        out[i, 2] = corpus.imp_click[sel].sum()
    return out


def test_impression_stats_match_brute_force(small_corpus):
    got = synthcorpus.impression_stat_features(small_corpus)
    want = _brute_force_stats(small_corpus)
    assert np.array_equal(got, want)


def test_item_stats_no_events_and_click_bound(small_corpus):
    stats = synthcorpus.item_stat_features(small_corpus)
    assert stats.shape == (small_corpus.n_items, 3)
    assert np.all(stats[:, 2] <= stats[:, 1])  # clicks never exceed exposures
    last = small_corpus.config.n_days - 1
    quiet = np.ones(small_corpus.n_items, dtype=bool)
    recent = (small_corpus.imp_ts >= last - 7) & (small_corpus.imp_ts < last)
    quiet[small_corpus.imp_item[recent] - 1] = False
    if quiet.any():
        assert np.all(stats[quiet, 1] == 0)
        assert np.all(stats[quiet, 2] == 0)


def test_compute_stat_features_hand_tally(small_corpus):
    it = int(small_corpus.imp_item[10])
    day = int(small_corpus.imp_ts[10])
    got = synthcorpus.impression_stat_features(small_corpus)[10]
    sel = ((small_corpus.imp_item == it)
           & (small_corpus.imp_ts >= day - 7) & (small_corpus.imp_ts < day))
    days_back = small_corpus.config.n_days - 1 - day
    assert got[0] == max(0, small_corpus.item_age[it - 1] - days_back)
    assert got[1] == sel.sum()
    assert got[2] == small_corpus.imp_click[sel].sum()


def test_stat_features_read_nothing_of_the_day_scored_or_later(small_corpus):
    # a guard against the next label leak: moving every impression of day d
    # or later to another item and flipping its click changes no item's
    # features as of day d, while it does change those of day d + 1
    c = small_corpus
    ids = np.arange(1, c.n_items + 1)
    day = c.config.n_days // 2
    late = c.imp_ts >= day
    moved = dataclasses.replace(c, imp_item=np.where(late, c.imp_item % c.n_items + 1, c.imp_item),
                                imp_click=np.where(late, 1 - c.imp_click, c.imp_click))
    for d, same in ((day, True), (day + 1, False)):
        days = np.full(ids.size, d)
        got, want = (synthcorpus._stat_features(k, ids, days) for k in (moved, c))
        assert np.array_equal(got, want) == same, d


# ---------------------------------------------------------------------------
# maturity buckets


def test_split_by_maturity_thresholds():
    ages = np.array([5, 350, 20, 300, 150])
    buckets = synthcorpus.split_by_maturity(ages)
    assert 0 in buckets["new"]       # age 5
    assert 1 in buckets["popular"]   # age 350
    assert 2 in buckets["mid"]       # boundary ages land in mid
    assert 3 in buckets["mid"]
    total = sum(len(v) for v in buckets.values())
    assert total == len(ages)


def test_split_by_maturity_partitions(small_corpus):
    buckets = synthcorpus.split_by_maturity(small_corpus.item_age)
    joined = np.concatenate([buckets["new"], buckets["mid"], buckets["popular"]])
    assert np.array_equal(np.sort(joined), np.arange(small_corpus.n_items))


def test_split_by_maturity_validates_thresholds():
    with pytest.raises(ValueError):
        synthcorpus.split_by_maturity(np.array([1]), new_threshold=300, popular_threshold=20)


# ---------------------------------------------------------------------------
# CSV roundtrip


def test_corpus_roundtrip(tmp_path, small_corpus):
    synthcorpus.save_corpus(str(tmp_path), small_corpus)
    loaded = synthcorpus.load_corpus(str(tmp_path), small_corpus.config)
    for name in ("item_content", "item_quality", "user_pref", "item_factor",
                 "user_factor"):
        assert np.array_equal(getattr(small_corpus, name), getattr(loaded, name)), name
    for name in ("item_age", "item_topic", "user_topic", "imp_user", "imp_item",
                 "imp_hist", "imp_click", "imp_pay", "imp_ts"):
        assert np.array_equal(getattr(small_corpus, name), getattr(loaded, name)), name
    assert loaded.config.n_items == small_corpus.n_items


def no_click_corpus():
    """A corpus whose click probability is zero everywhere, so every history is empty."""
    cfg = small_corpus_config(n_impressions=200, base_ctr=0.0, sem_gain=0.0,
                              quality_gain=0.0, collab_gain=0.0, label_noise=0.0)
    corpus = synthcorpus.generate_corpus(cfg, seed=3)
    assert not corpus.imp_click.any() and not corpus.imp_hist.any()
    return corpus


@pytest.mark.parametrize("which", ["small", "no-clicks"])
def test_corpus_csv_bytes_roundtrip(tmp_path, small_corpus, which):
    corpus = small_corpus if which == "small" else no_click_corpus()
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    synthcorpus.save_corpus(str(first), corpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's "input contained no data"
        loaded = synthcorpus.load_corpus(str(first), corpus.config)
    for name in ("imp_user", "imp_item", "imp_hist", "imp_click", "imp_pay", "imp_ts"):
        assert getattr(loaded, name).dtype == np.int64, name
    synthcorpus.save_corpus(str(second), loaded)
    for name in ("items.csv", "users.csv", "impressions.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_load_corpus_takes_widths_from_file(tmp_path, small_corpus):
    synthcorpus.save_corpus(str(tmp_path), small_corpus)
    cfg = small_corpus.config
    narrow = dataclasses.replace(cfg, content_dim=cfg.content_dim // 2,
                                 factor_dim=cfg.factor_dim // 2)
    loaded = synthcorpus.load_corpus(str(tmp_path), narrow)
    assert np.array_equal(loaded.item_content, small_corpus.item_content)
    assert np.array_equal(loaded.user_factor, small_corpus.user_factor)
    assert (loaded.config.content_dim, loaded.config.factor_dim) == (
        cfg.content_dim, cfg.factor_dim)
