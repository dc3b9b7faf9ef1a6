"""Synthetic item/user/impression corpus with a planted cold-start structure.

Click probability for young items is driven by content affinity between the
user's current preference and the item's content vector; for mature items it
is driven by latent per-item quality and a latent user-item collaborative
factor, both visible only through interaction counts. User preferences and
collaborative tastes drift slowly over the log window, so the user's recent
click history -- not a static user identity -- carries the live signal.
Semantic signal therefore dominates cold items and collaborative signal
dominates popular items, by construction.
"""

import dataclasses
import re

import numpy as np

from .diffkernel import CSV_BLOCK, read_csv, write_csv


@dataclasses.dataclass
class CorpusConfig:
    n_users: int = 500
    n_items: int = 2000
    n_impressions: int = 60000
    n_days: int = 30
    content_dim: int = 64
    n_topics: int = 16
    topic_noise: float = 0.35
    cold_fraction: float = 0.3
    l_max: int = 20
    label_noise: float = 0.02
    new_age_days: int = 20
    popular_age_days: int = 300
    max_age_days: int = 365
    exposure_boost: float = 1.5   # extra exposure weight for mature high-quality items
    factor_dim: int = 16          # latent collaborative factor dimension
    factor_clusters: int = 24     # latent taste communities, independent of topics
    user_anchors: int = 4         # topic/community anchors mixed per user
    drift_step: float = 0.08      # per-day random-walk step of the user state
    hist_state_blend: float = 0.95
    base_ctr: float = 0.03
    sem_gain: float = 0.6
    sem_floor: float = 0.05       # fraction of sem_gain kept for fully mature items
    quality_gain: float = 0.2
    collab_gain: float = 0.5


@dataclasses.dataclass
class Corpus:
    config: CorpusConfig
    # items, 1-based ids; row i-1 describes item i (id 0 is the pad id)
    item_content: np.ndarray   # (n_items, content_dim)
    item_age: np.ndarray       # (n_items,) days online at the end of the log
    item_quality: np.ndarray   # (n_items,) latent, in [0, 1]
    item_topic: np.ndarray     # (n_items,)
    item_factor: np.ndarray    # (n_items, factor_dim) latent collaborative factor
    user_pref: np.ndarray      # (n_users, content_dim) the drawn preference, averaged over
                               # the log window; latent, no stage reads it
    user_topic: np.ndarray     # (n_users,)
    user_factor: np.ndarray    # (n_users, factor_dim)
    # impressions, time-ordered
    imp_user: np.ndarray       # (N,) 0-based user index
    imp_item: np.ndarray       # (N,) 1-based item id
    imp_hist: np.ndarray       # (N, l_max) 1-based item ids, 0 = pad, most recent last
    imp_click: np.ndarray      # (N,) {0,1}
    imp_pay: np.ndarray        # (N,) {0,1}
    imp_ts: np.ndarray         # (N,) day index

    @property
    def n_items(self):
        return self.item_content.shape[0]

    @property
    def n_users(self):
        return self.user_pref.shape[0]


def _maturity(age):
    """0 for brand-new items, ~1 for long-lived ones."""
    return 1.0 / (1.0 + np.exp(-(age - 60.0) / 25.0))


def generate_corpus(config=None, seed=0):
    corpus, drift = _draw_corpus(config or CorpusConfig(), seed)
    _play_rounds(corpus, *drift)
    return corpus


def _draw_corpus(config, seed):
    """Every random draw, in order: the corpus without histories, clicks and
    pays, and the inputs of the state process that fills those in."""
    if min(config.n_items, config.n_users, config.n_impressions, config.l_max) <= 0:
        raise ValueError("generate_corpus: counts and l_max must be positive")
    rng = np.random.default_rng([seed, 0xDA7A])

    centers = rng.normal(size=(config.n_topics, config.content_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    # noise scaled by 1/sqrt(dim) so its norm is ~topic_noise regardless of dim
    nscale = config.topic_noise / np.sqrt(config.content_dim)
    item_topic = rng.integers(0, config.n_topics, size=config.n_items)
    item_content = centers[item_topic] + nscale * rng.normal(
        size=(config.n_items, config.content_dim))
    item_content /= np.linalg.norm(item_content, axis=1, keepdims=True)
    n_cold = int(round(config.cold_fraction * config.n_items))
    item_age = np.concatenate([
        rng.integers(0, config.new_age_days, size=n_cold),
        rng.integers(config.new_age_days, config.max_age_days + 1,
                     size=config.n_items - n_cold),
    ])
    item_age = rng.permutation(item_age)
    item_quality = rng.uniform(size=config.n_items)

    # collaborative factors live in taste communities of their own, assigned
    # independently of the content topics
    fcenters = rng.normal(size=(config.factor_clusters, config.factor_dim))
    fcenters /= np.linalg.norm(fcenters, axis=1, keepdims=True)
    fscale = config.topic_noise / np.sqrt(config.factor_dim)
    item_fcluster = rng.integers(0, config.factor_clusters, size=config.n_items)
    item_factor = fcenters[item_fcluster] + fscale * rng.normal(
        size=(config.n_items, config.factor_dim))
    item_factor /= np.linalg.norm(item_factor, axis=1, keepdims=True)

    # each user mixes a handful of anchors with day-by-day drifting weights,
    # so the current preference is observable only through recent behavior
    # and a user's history spans several topics at once
    def drifting_mixture(anchors):
        # anchors: (n_users, A, dim); returns (n_users, n_days, dim) unit rows
        a = anchors.shape[1]
        logits = rng.normal(size=(config.n_users, a, 1)) + config.drift_step * np.concatenate(
            [np.zeros((config.n_users, a, 1)),
             rng.normal(size=(config.n_users, a, config.n_days - 1))], axis=2).cumsum(axis=2)
        wts = np.exp(logits - logits.max(axis=1, keepdims=True))
        wts /= wts.sum(axis=1, keepdims=True)
        mix = np.einsum("uat,uad->utd", wts, anchors)
        return mix / np.linalg.norm(mix, axis=2, keepdims=True)

    anchor_topics = rng.integers(0, config.n_topics,
                                 size=(config.n_users, config.user_anchors))
    user_topic = anchor_topics[:, 0].copy()
    user_noise = nscale * rng.normal(size=(config.n_users, 1, config.content_dim))
    pref_ut = drifting_mixture(centers[anchor_topics] + user_noise)
    user_pref = pref_ut.mean(axis=1)
    user_pref /= np.linalg.norm(user_pref, axis=1, keepdims=True)

    anchor_fclusters = rng.integers(0, config.factor_clusters,
                                    size=(config.n_users, config.user_anchors))
    factor_ut = drifting_mixture(fcenters[anchor_fclusters])
    user_factor = factor_ut.mean(axis=1)
    user_factor /= np.linalg.norm(user_factor, axis=1, keepdims=True)

    # exposure skew: mature, high-quality items are shown more often
    m = _maturity(item_age.astype(float))
    expo_w = 1.0 + config.exposure_boost * m * item_quality
    expo_p = expo_w / expo_w.sum()

    n = config.n_impressions
    imp_user = rng.integers(0, config.n_users, size=n)
    imp_item = rng.choice(config.n_items, size=n, p=expo_p) + 1
    imp_ts = np.sort(rng.integers(0, config.n_days, size=n))

    click_u = rng.uniform(size=n)
    flip = rng.uniform(size=n) < config.label_noise
    pay_u = rng.uniform(size=n)
    corpus = Corpus(
        config=config, item_content=item_content, item_age=item_age,
        item_quality=item_quality, item_topic=item_topic, item_factor=item_factor,
        user_pref=user_pref, user_topic=user_topic, user_factor=user_factor,
        imp_user=imp_user, imp_item=imp_item, imp_ts=imp_ts,
        imp_hist=np.zeros((n, config.l_max), dtype=np.int64),
        imp_click=np.zeros(n, dtype=np.int64), imp_pay=np.zeros(n, dtype=np.int64))
    return corpus, (pref_ut, factor_ut, m[imp_item - 1], click_u, flip, pay_u)


def _matvecs(mats, vecs):
    """mats[i] @ vecs[i], each rounded as the unstacked k-row gemv (k = 1: dot) is."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _play_rounds(corpus, pref_ut, factor_ut, mi, click_u, flip, pay_u):
    """Fill in the histories, clicks and pays: write imp_hist, imp_click and imp_pay
    and nothing else. The state is per user, so round r evaluates every user's r-th
    impression at once; a gemv rounds by its row count, so reductions group rows of equal
    length, and every bit is as in a loop over one impression at a time."""
    c = corpus.config
    l_max, blend = c.l_max, c.hist_state_blend
    content, factor, users = corpus.item_content, corpus.item_factor, corpus.imp_user
    by_user = np.argsort(users, kind="stable")
    counts = np.bincount(users, minlength=c.n_users)
    starts = np.cumsum(counts) - counts
    # each user's clicks, oldest first; over 4 l_max, the last 2 l_max are kept
    clicked = np.zeros((c.n_users, 4 * l_max + 1), dtype=np.int64)
    n_clicked = np.zeros(c.n_users, dtype=np.int64)
    for r in range(counts.max()):
        i = by_user[starts[counts > r] + r]  # the r-th impression of each user that has one
        u, it, ts = users[i], corpus.imp_item[i], corpus.imp_ts[i]
        # the visible history: the last l_max clicks that are not the target, right-aligned
        held = clicked[u]
        keep = (held != it[:, None]) & (np.arange(held.shape[1]) < n_clicked[u, None])
        from_end = keep[:, ::-1].cumsum(axis=1)[:, ::-1]
        rows, cols = np.nonzero(keep & (from_end <= l_max))
        corpus.imp_hist[i[rows], l_max - from_end[rows, cols]] = held[rows, cols]
        hist, hlen = corpus.imp_hist[i], np.minimum(from_end[:, 0], l_max)
        target, target_f = content[it - 1], factor[it - 1]
        lat_aff = _matvecs(pref_ut[u, ts][:, None], target)[:, 0]
        lat_col = _matvecs(factor_ut[u, ts][:, None], target_f)[:, 0]
        affinity, collab_aff = lat_aff.copy(), lat_col.copy()
        for k in np.unique(hlen[hlen > 0]):
            g = hlen == k
            hr = hist[g, l_max - k:] - 1
            # best-match interest: the closest history item counts, not an average
            affinity[g] = ((1.0 - blend) * lat_aff[g]
                           + blend * _matvecs(content[hr], target[g]).max(axis=1))
        # the co-click community signal only exists on history items that
        # have been around long enough to accumulate interactions
        mature = (hist > 0) & (corpus.item_age[hist - 1] > 60)
        n_mature = mature.sum(axis=1)
        for k in np.unique(n_mature[n_mature > 0]):
            g = n_mature == k
            hm = hist[g][mature[g]].reshape(-1, k) - 1
            collab_aff[g] = ((1.0 - blend) * lat_col[g]
                             + blend * _matvecs(factor[hm], target_f[g]).max(axis=1))
        sem = 1.0 / (1.0 + np.exp(-8.0 * (affinity - 0.5)))
        collab = 1.0 / (1.0 + np.exp(-6.0 * (collab_aff - 0.45)))
        m, quality = mi[i], corpus.item_quality[it - 1]
        sem_w = c.sem_gain * (1.0 - (1.0 - c.sem_floor) * m)
        p_click = c.base_ctr + sem_w * sem + m * (c.quality_gain * quality + c.collab_gain * collab)
        click = corpus.imp_click[i] = (click_u[i] < p_click) != flip[i]
        p_pay = 0.05 + 0.3 * ((1.0 - m) * sem + m * 0.5 * (quality + collab))
        corpus.imp_pay[i] = click & (pay_u[i] < p_pay)
        cu = u[click]
        clicked[cu, n_clicked[cu]] = it[click]
        n_clicked[cu] += 1
        full = cu[n_clicked[cu] > 4 * l_max]
        clicked[full, :2 * l_max] = clicked[full, 2 * l_max + 1:]
        n_clicked[full] = 2 * l_max


# ---------------------------------------------------------------------------
# statistical features

# the raw stat features of an (item, day) pair, in column order
STAT_FEATURES = ("online_duration_days", "exposures_7d", "clicks_7d")


def _window_counts(corpus, window_days=7):
    """Per (item, day d) exposure and click counts over days [d - window_days,
    d - 1]: point in time, so no impression of day d, and so no label that an
    impression of day d is scored against, is ever counted."""
    n_items = corpus.n_items
    n_days = corpus.config.n_days
    expo = np.zeros((n_items + 1, n_days))
    clk = np.zeros((n_items + 1, n_days))
    np.add.at(expo, (corpus.imp_item, corpus.imp_ts), 1.0)
    np.add.at(clk, (corpus.imp_item, corpus.imp_ts), corpus.imp_click.astype(float))
    lo = np.maximum(np.arange(n_days) - window_days, 0)

    def window(counts):
        before = np.zeros((counts.shape[0], n_days + 1))  # before[:, d] sums days < d
        np.cumsum(counts, axis=1, out=before[:, 1:])
        return before[:, :-1] - before[:, lo]

    return window(expo), window(clk)


def _stat_features(corpus, item_ids, days):
    """The STAT_FEATURES columns per (item id, day) pair."""
    wexpo, wclk = _window_counts(corpus)
    days_back = corpus.config.n_days - 1 - days
    duration = np.maximum(0, corpus.item_age[item_ids - 1] - days_back)
    cols = {"online_duration_days": duration.astype(np.float64),
            "exposures_7d": wexpo[item_ids, days], "clicks_7d": wclk[item_ids, days]}
    return np.stack([cols[name] for name in STAT_FEATURES], axis=1)


def impression_stat_features(corpus):
    """Raw stat features for every impression, as of the start of its day."""
    return _stat_features(corpus, corpus.imp_item, corpus.imp_ts)


def item_stat_features(corpus):
    """Raw stat features for every item as of the start of the log's last day
    (row i = item i+1)."""
    ids = np.arange(1, corpus.n_items + 1)
    return _stat_features(corpus, ids, np.full(ids.size, corpus.config.n_days - 1))


def split_by_maturity(ages, new_threshold=20, popular_threshold=300):
    """Disjoint new / mid / popular index buckets covering every item."""
    if new_threshold <= 0 or popular_threshold <= 0 or new_threshold >= popular_threshold:
        raise ValueError("split_by_maturity: need 0 < new_threshold < popular_threshold")
    ages = np.asarray(ages)
    return {
        "new": np.flatnonzero(ages < new_threshold),
        "mid": np.flatnonzero((ages >= new_threshold) & (ages <= popular_threshold)),
        "popular": np.flatnonzero(ages > popular_threshold),
    }


# ---------------------------------------------------------------------------
# CSV artifacts

_IMPRESSION_HEADER = "user_id,item_id,history,click,pay,ts"
_INT = r"\s*[+-]?[0-9]+\s*"
_IMPRESSION_LINE = rf"{_INT},{_INT},(?:{_INT}(?:\|{_INT})*)?,{_INT},{_INT},{_INT}"


def save_corpus(dirpath, corpus):
    import os
    c = corpus.config
    factors = [f"f{i}" for i in range(c.factor_dim)]
    write_csv(os.path.join(dirpath, "items.csv"),
              ["item_id,age,quality,topic", *(f"v{i}" for i in range(c.content_dim)), *factors],
              np.arange(1, corpus.n_items + 1), corpus.item_age, corpus.item_quality,
              corpus.item_topic, corpus.item_content, corpus.item_factor)
    write_csv(os.path.join(dirpath, "users.csv"),
              ["user_id,topic", *(f"p{i}" for i in range(c.content_dim)), *factors],
              np.arange(corpus.n_users), corpus.user_topic, corpus.user_pref, corpus.user_factor)
    write_csv(os.path.join(dirpath, "impressions.csv"), [_IMPRESSION_HEADER],
              corpus.imp_user, corpus.imp_item,
              ["|".join(map(str, filter(None, h)))
               for lo in range(0, len(corpus.imp_hist), CSV_BLOCK)
               for h in corpus.imp_hist[lo:lo + CSV_BLOCK].tolist()],
              corpus.imp_click, corpus.imp_pay, corpus.imp_ts)


def _vector_columns(header, prefix):
    """Positions of the columns prefix0, prefix1, ... in a CSV header."""
    return [i for i, name in enumerate(header)
            if name.startswith(prefix) and name[len(prefix):].isdigit()]


def _check(path, bad, values, problem):
    """Raise naming the first line with a set entry of ``bad`` ((N,) or
    (N, k); data row i is line i + 2) and, through ``problem.format``, the
    entry of ``values`` there."""
    rows, cols = np.nonzero(bad.reshape(len(bad), -1))
    if rows.size:
        value = values.reshape(len(values), -1)[rows[0], cols[0]]
        raise ValueError(f"{path} line {rows[0] + 2}: " + problem.format(value))


def _read_numeric(path, first_id):
    """Header and float rows of a numeric CSV whose first column holds the
    ids first_id, first_id + 1, ... in row order."""
    header, rows = read_csv(path)
    last = first_id + rows.shape[0] - 1
    _check(path, rows[:, 0] != np.arange(first_id, last + 1), rows[:, 0],
           f"id {{:g}} is out of order (ids run {first_id}..{last} in row order)")
    return header, rows


def _int_column(path, rows, j, name):
    """Column j of rows as int64; a value that is not a whole number is an error."""
    col = rows[:, j]
    _check(path, ~np.isfinite(col) | (col != np.round(col)), col,
           name + " {:g} is not an integer")
    return col.astype(np.int64)


def _columns(rows, idx):
    """rows[:, idx] as a C-ordered copy: a column selection comes out
    F-ordered, and matrix products may round differently on it."""
    return np.ascontiguousarray(rows[:, idx])


def _read_impressions(path):
    """impressions.csv's int64 columns (user_id, item_id, click, pay, ts), each
    row's history length and all history ids in row order, by numpy's C parser;
    a line that is not six integer fields is an error naming the line."""
    with open(path) as f:
        lines = f.read().splitlines()[1:]
    try:
        # the comma count finds a line with extra fields, loadtxt one with too few
        if not lines or sum(line.count(",") for line in lines) != 5 * len(lines):
            raise ValueError("no impression lines, or one without 6 fields")
        cols = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 3, 4, 5), dtype=np.int64,
                          ndmin=2, comments=None)
        hists = [line.split(",", 3)[2] for line in lines]
        joined = "|".join(filter(None, hists))  # no ids at all: nothing for loadtxt to read
        ids = (np.loadtxt([joined], delimiter="|", dtype=np.int64, ndmin=1, comments=None)
               if joined else np.zeros(0, dtype=np.int64))
    except ValueError as exc:
        for k, line in enumerate(lines, start=2):
            if not re.fullmatch(_IMPRESSION_LINE, line):
                raise ValueError(f"{path} line {k}: not six integer fields ({_IMPRESSION_HEADER}"
                                 f", history ids joined by '|'): {line!r}") from None
            big = [v.strip() for v in re.split("[,|]", line) if v and not -2**63 <= int(v) < 2**63]
            if big:
                raise ValueError(f"{path} line {k}: {big[0]} is outside the int64 range") from None
        raise ValueError(f"{path}: {exc}") from None
    hist_len = np.array([h.count("|") + 1 if h else 0 for h in hists], dtype=np.int64)
    return cols.T.copy(), hist_len, ids


def load_corpus(dirpath, config=None):
    """Read a saved corpus. Vector widths come from the CSV headers; the
    config supplies the history length, the day count and the generator
    settings. Item ids must run 1..n and user ids 0..n-1 in row order. A
    malformed impression line, an id outside those ranges, a click or pay
    not 0/1, a pay without a click, a history over l_max or a day outside
    [0, n_days) is an error that names the file and line."""
    import os
    config = config or CorpusConfig()

    items_path = os.path.join(dirpath, "items.csv")
    header, items = _read_numeric(items_path, 1)
    vcols, fcols = _vector_columns(header, "v"), _vector_columns(header, "f")
    n_items = items.shape[0]
    item_age = _int_column(items_path, items, 1, "age")
    item_quality = _columns(items, 2)
    item_topic = _int_column(items_path, items, 3, "topic")
    item_content = _columns(items, vcols)
    item_factor = _columns(items, fcols)

    users_path = os.path.join(dirpath, "users.csv")
    header, users = _read_numeric(users_path, 0)
    pcols, ufcols = _vector_columns(header, "p"), _vector_columns(header, "f")
    if len(pcols) != len(vcols) or len(ufcols) != len(fcols):
        raise ValueError(f"{users_path}: {len(pcols)} preference and {len(ufcols)} factor "
                         f"columns, but {items_path} has {len(vcols)} and {len(fcols)}")
    n_users = users.shape[0]
    user_topic = _int_column(users_path, users, 1, "topic")
    user_pref = _columns(users, pcols)
    user_factor = _columns(users, ufcols)

    imp_path = os.path.join(dirpath, "impressions.csv")
    (imp_user, imp_item, imp_click, imp_pay, imp_ts), hist_len, hist_ids = \
        _read_impressions(imp_path)
    _check(imp_path, (imp_click < 0) | (imp_click > 1), imp_click, "click {} is not 0 or 1")
    _check(imp_path, (imp_pay < 0) | (imp_pay > 1), imp_pay, "pay {} is not 0 or 1")
    _check(imp_path, imp_pay > imp_click, imp_pay, "pay {} on an impression without a click")
    _check(imp_path, (imp_ts < 0) | (imp_ts >= config.n_days), imp_ts,
           f"impression day {{}} is outside [0, n_days={config.n_days})")
    _check(imp_path, (imp_user < 0) | (imp_user >= n_users), imp_user,
           f"user id {{}} is outside the users 0..{n_users - 1} of {users_path}")
    items_range = f"outside the items 1..{n_items} of {items_path}"
    _check(imp_path, (imp_item < 1) | (imp_item > n_items), imp_item,
           "item id {} is " + items_range)
    _check(imp_path, hist_len > config.l_max, hist_len,
           f"history of {{}} items is longer than l_max={config.l_max}")
    # histories are right-aligned, most recent last; the slots before them are pad
    stored = np.arange(config.l_max) >= config.l_max - hist_len.reshape(-1, 1)
    imp_hist = np.zeros(stored.shape, dtype=np.int64)
    imp_hist[stored] = hist_ids
    _check(imp_path, stored & ((imp_hist < 1) | (imp_hist > n_items)), imp_hist,
           "history item id {} is " + items_range)

    cfg = dataclasses.replace(config, n_users=n_users, n_items=n_items, n_impressions=imp_user.size,
                              content_dim=len(vcols), factor_dim=len(fcols))
    return Corpus(
        config=cfg, item_content=item_content, item_age=item_age,
        item_quality=item_quality, item_topic=item_topic, item_factor=item_factor,
        user_pref=user_pref, user_topic=user_topic, user_factor=user_factor,
        imp_user=imp_user, imp_item=imp_item, imp_hist=imp_hist,
        imp_click=imp_click, imp_pay=imp_pay, imp_ts=imp_ts)
