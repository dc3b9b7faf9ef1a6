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

import csv
from dataclasses import dataclass

import numpy as np

from .diffkernel import atomic_write_text


@dataclass
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
    hist_state_window: int = 10   # recent clicks blended into the effective state
    hist_state_blend: float = 0.95
    base_ctr: float = 0.03
    sem_gain: float = 0.6
    sem_floor: float = 0.05       # fraction of sem_gain kept for fully mature items
    quality_gain: float = 0.2
    collab_gain: float = 0.5


@dataclass
class Corpus:
    config: CorpusConfig
    # items, 1-based ids; row i-1 describes item i (id 0 is the pad id)
    item_content: np.ndarray   # (n_items, content_dim)
    item_age: np.ndarray       # (n_items,) days online at the end of the log
    item_quality: np.ndarray   # (n_items,) latent, in [0, 1]
    item_topic: np.ndarray     # (n_items,)
    item_factor: np.ndarray    # (n_items, factor_dim) latent collaborative factor
    user_pref: np.ndarray      # (n_users, content_dim)
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
    config = config or CorpusConfig()
    if config.n_items <= 0 or config.n_users <= 0 or config.n_impressions <= 0:
        raise ValueError("generate_corpus: counts must be positive")
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

    # Sequential state process: the click probability blends the drifting
    # latent state with the best match between the target and the user's
    # visible clicked history, so the history carries the live signal and
    # which history item matters depends on the target.
    mi = m[imp_item - 1]
    click_u = rng.uniform(size=n)
    flip = rng.uniform(size=n) < config.label_noise
    pay_u = rng.uniform(size=n)

    imp_hist = np.zeros((n, config.l_max), dtype=np.int64)
    click = np.zeros(n, dtype=np.int64)
    pay = np.zeros(n, dtype=np.int64)
    user_hist = [[] for _ in range(config.n_users)]
    pref_accum = np.zeros_like(user_pref)
    pref_count = np.zeros(config.n_users)
    recent = config.hist_state_window
    blend = config.hist_state_blend
    for i in range(n):
        u = imp_user[i]
        it = imp_item[i] - 1
        ts = imp_ts[i]
        h = [j for j in user_hist[u] if j != imp_item[i]][-config.l_max:]
        lat_aff = pref_ut[u, ts] @ item_content[it]
        lat_col = factor_ut[u, ts] @ item_factor[it]
        if h:
            imp_hist[i, -len(h):] = h
            hr = np.array(h) - 1
            # best-match interest: the click depends on how well the target
            # matches the single closest item in the visible history, not on
            # an average of the history
            affinity = ((1.0 - blend) * lat_aff
                        + blend * (item_content[hr] @ item_content[it]).max())
            # the co-click community signal only exists on history items that
            # have been around long enough to accumulate interactions
            hm = hr[item_age[hr] > 60]
            if hm.size:
                collab_aff = ((1.0 - blend) * lat_col
                              + blend * (item_factor[hm] @ item_factor[it]).max())
            else:
                collab_aff = lat_col
            pref = ((1.0 - blend) * pref_ut[u, ts]
                    + blend * item_content[hr[-recent:]].mean(axis=0))
            pref /= np.linalg.norm(pref)
        else:
            affinity = lat_aff
            collab_aff = lat_col
            pref = pref_ut[u, ts]
        pref_accum[u] += pref
        pref_count[u] += 1

        sem = 1.0 / (1.0 + np.exp(-8.0 * (affinity - 0.5)))
        collab = 1.0 / (1.0 + np.exp(-6.0 * (collab_aff - 0.45)))
        sem_w = config.sem_gain * (1.0 - (1.0 - config.sem_floor) * mi[i])
        p_click = (config.base_ctr + sem_w * sem
                   + mi[i] * (config.quality_gain * item_quality[it]
                              + config.collab_gain * collab))
        c = 1 if click_u[i] < p_click else 0
        if flip[i]:
            c = 1 - c
        click[i] = c
        if c:
            p_pay = 0.05 + 0.3 * ((1.0 - mi[i]) * sem
                                  + mi[i] * 0.5 * (item_quality[it] + collab))
            pay[i] = 1 if pay_u[i] < p_pay else 0
            user_hist[u].append(int(imp_item[i]))
            if len(user_hist[u]) > 4 * config.l_max:
                user_hist[u] = user_hist[u][-2 * config.l_max:]

    # store the realized mean effective preference for probing/analysis
    seen = pref_count > 0
    user_pref[seen] = pref_accum[seen] / pref_count[seen, None]
    user_pref /= np.linalg.norm(user_pref, axis=1, keepdims=True)

    return Corpus(
        config=config,
        item_content=item_content, item_age=item_age,
        item_quality=item_quality, item_topic=item_topic, item_factor=item_factor,
        user_pref=user_pref, user_topic=user_topic, user_factor=user_factor,
        imp_user=imp_user, imp_item=imp_item, imp_hist=imp_hist,
        imp_click=click, imp_pay=pay, imp_ts=imp_ts,
    )


# ---------------------------------------------------------------------------
# statistical features

# the raw stat features of an (item, day) pair, in column order
STAT_FEATURES = ("online_duration_days", "exposures_7d", "clicks_7d")


def _window_counts(corpus, window_days=7):
    """Per (item, day) trailing-window exposure and click counts."""
    n_items = corpus.n_items
    n_days = corpus.config.n_days
    expo = np.zeros((n_items + 1, n_days))
    clk = np.zeros((n_items + 1, n_days))
    np.add.at(expo, (corpus.imp_item, corpus.imp_ts), 1.0)
    np.add.at(clk, (corpus.imp_item, corpus.imp_ts), corpus.imp_click.astype(float))

    def window(counts):
        # day d sums days (d - window_days, d]: the running total at d minus
        # the one window_days earlier (zero before that)
        total = counts.cumsum(axis=1)
        earlier = np.zeros_like(total)
        earlier[:, window_days:] = total[:, :-window_days]
        return total - earlier

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
    """Raw stat features for every impression, as of each impression's day."""
    return _stat_features(corpus, corpus.imp_item, corpus.imp_ts)


def item_stat_features(corpus):
    """Raw stat features for every item at the end of the log (row i = item i+1)."""
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


def save_corpus(dirpath, corpus):
    import os
    c = corpus.config

    lines = ["item_id,age,quality,topic,"
             + ",".join(f"v{i}" for i in range(c.content_dim)) + ","
             + ",".join(f"f{i}" for i in range(c.factor_dim))]
    for i in range(corpus.n_items):
        vec = ",".join(repr(float(v)) for v in corpus.item_content[i])
        fac = ",".join(repr(float(v)) for v in corpus.item_factor[i])
        lines.append(f"{i+1},{corpus.item_age[i]},{float(corpus.item_quality[i])!r},"
                     f"{corpus.item_topic[i]},{vec},{fac}")
    atomic_write_text(os.path.join(dirpath, "items.csv"), "\n".join(lines) + "\n")

    lines = ["user_id,topic,"
             + ",".join(f"p{i}" for i in range(c.content_dim)) + ","
             + ",".join(f"f{i}" for i in range(c.factor_dim))]
    for u in range(corpus.n_users):
        vec = ",".join(repr(float(v)) for v in corpus.user_pref[u])
        fac = ",".join(repr(float(v)) for v in corpus.user_factor[u])
        lines.append(f"{u},{corpus.user_topic[u]},{vec},{fac}")
    atomic_write_text(os.path.join(dirpath, "users.csv"), "\n".join(lines) + "\n")

    lines = ["user_id,item_id,history,click,pay,ts"]
    for i in range(corpus.imp_user.shape[0]):
        h = "|".join(str(v) for v in corpus.imp_hist[i] if v != 0)
        lines.append(f"{corpus.imp_user[i]},{corpus.imp_item[i]},{h},"
                     f"{corpus.imp_click[i]},{corpus.imp_pay[i]},{corpus.imp_ts[i]}")
    atomic_write_text(os.path.join(dirpath, "impressions.csv"), "\n".join(lines) + "\n")


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
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        try:
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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


def load_corpus(dirpath, config=None):
    """Read a saved corpus. Vector widths come from the CSV headers; the
    config supplies the history length and the day count and the generator
    settings. Item ids must run 1..n and user ids 0..n-1 in row order; an
    impression's user, item or history id outside those ranges, a stored
    history longer than l_max and an impression day outside [0, n_days)
    are errors that name the file and line."""
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
    with open(imp_path) as f:
        rows = list(csv.reader(f))[1:]
    n = len(rows)
    imp_user = np.array([int(r[0]) for r in rows])
    imp_item = np.array([int(r[1]) for r in rows])
    imp_click = np.array([int(r[3]) for r in rows])
    imp_pay = np.array([int(r[4]) for r in rows])
    imp_ts = np.array([int(r[5]) for r in rows])
    _check(imp_path, (imp_ts < 0) | (imp_ts >= config.n_days), imp_ts,
           f"impression day {{}} is outside [0, n_days={config.n_days})")
    _check(imp_path, (imp_user < 0) | (imp_user >= n_users), imp_user,
           f"user id {{}} is outside the users 0..{n_users - 1} of {users_path}")
    items_range = f"outside the items 1..{n_items} of {items_path}"
    _check(imp_path, (imp_item < 1) | (imp_item > n_items), imp_item,
           "item id {} is " + items_range)
    hists = [r[2].split("|") if r[2] else [] for r in rows]
    hist_len = np.array([len(h) for h in hists], dtype=np.int64)
    _check(imp_path, hist_len > config.l_max, hist_len,
           f"history of {{}} items is longer than l_max={config.l_max}")
    # histories are right-aligned, most recent last; the slots before them are pad
    stored = np.arange(config.l_max) >= config.l_max - hist_len.reshape(-1, 1)
    imp_hist = np.zeros((n, config.l_max), dtype=np.int64)
    imp_hist[stored] = [int(v) for h in hists for v in h]
    _check(imp_path, stored & ((imp_hist < 1) | (imp_hist > n_items)), imp_hist,
           "history item id {} is " + items_range)

    cfg = CorpusConfig(**{**config.__dict__,
                          "n_users": n_users,
                          "n_items": n_items,
                          "n_impressions": n,
                          "content_dim": len(vcols),
                          "factor_dim": len(fcols)})
    return Corpus(
        config=cfg,
        item_content=item_content, item_age=item_age,
        item_quality=item_quality, item_topic=item_topic, item_factor=item_factor,
        user_pref=user_pref, user_topic=user_topic, user_factor=user_factor,
        imp_user=imp_user, imp_item=imp_item, imp_hist=imp_hist,
        imp_click=imp_click, imp_pay=imp_pay, imp_ts=imp_ts,
    )
