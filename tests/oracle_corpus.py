"""The corpus generator's sequential state process, one impression after
another, kept as the reference implementation of
``synthcorpus._play_rounds``, which evaluates every user's r-th impression
in one round. The random draws are shared: both start from
``synthcorpus._draw_corpus``."""

import numpy as np

from gatesid import synthcorpus


def reference_corpus(config, seed):
    """generate_corpus(config, seed) with the per-impression loop."""
    corpus, drift = synthcorpus._draw_corpus(config, seed)
    play_sequentially(corpus, *drift)
    return corpus


def play_sequentially(corpus, pref_ut, factor_ut, mi, click_u, flip, pay_u):
    config = corpus.config
    n = config.n_impressions
    imp_user, imp_item, imp_ts = corpus.imp_user, corpus.imp_item, corpus.imp_ts
    item_content, item_factor = corpus.item_content, corpus.item_factor
    item_age, item_quality = corpus.item_age, corpus.item_quality

    imp_hist = np.zeros((n, config.l_max), dtype=np.int64)
    click = np.zeros(n, dtype=np.int64)
    pay = np.zeros(n, dtype=np.int64)
    user_hist = [[] for _ in range(config.n_users)]
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
        else:
            affinity = lat_aff
            collab_aff = lat_col

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

    corpus.imp_hist, corpus.imp_click, corpus.imp_pay = imp_hist, click, pay
