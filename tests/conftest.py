import numpy as np
import pytest

from gatesid import rqvae, synthcorpus


def small_corpus_config(**overrides):
    base = dict(n_users=40, n_items=150, n_impressions=3000, n_days=10,
                content_dim=16, n_topics=4, l_max=8, factor_dim=8,
                factor_clusters=6)
    base.update(overrides)
    return synthcorpus.CorpusConfig(**base)


@pytest.fixture(scope="session")
def small_corpus():
    return synthcorpus.generate_corpus(small_corpus_config(), seed=3)


@pytest.fixture(scope="session")
def small_rq(small_corpus):
    """Quantizer artifacts fitted on the small corpus content."""
    cfg = rqvae.RqVaeConfig(content_dim=16, latent_dim=8, levels=3,
                            codes_per_level=8, hidden_dim=16, epochs=4)
    params, codebook, curve = rqvae.train_rqvae(small_corpus.item_content, cfg, seed=3)
    sids = rqvae.assign_sids(small_corpus.item_content, params, codebook)
    return {"config": cfg, "params": params, "codebook": codebook,
            "curve": curve, "sids": sids}


@pytest.fixture(scope="session")
def small_sid_table(small_corpus, small_rq):
    table = np.zeros((small_corpus.n_items + 1, len(small_rq["codebook"])),
                     dtype=np.int64)
    table[1:] = small_rq["sids"]
    return table
