"""Run configuration parsing/precedence and the command line pipeline."""

import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from gatesid import cli, config, evalkit, rqvae, synthcorpus, train
from gatesid import diffkernel as dk
from gatesid.model import GateSidModel, ModelConfig


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    text = "seed = 5\n# comment\n\nn_items=42   # trailing comment\nlr=1e-2\n"
    vals = config.parse_config_text(text)
    assert vals == {"seed": 5, "n_items": 42, "lr": 0.01}


def test_parse_config_text_unknown_key_names_line():
    with pytest.raises(config.ConfigError, match=r"cfg:2: unknown config key 'bogus'"):
        config.parse_config_text("seed=1\nbogus=2\n", source="cfg")


def test_parse_config_text_requires_key_value():
    with pytest.raises(config.ConfigError, match="expected key=value"):
        config.parse_config_text("just words\n")


def test_parse_config_bad_value_types():
    with pytest.raises(config.ConfigError):
        config.parse_config_text("seed=abc\n")
    with pytest.raises(config.ConfigError):
        config.parse_config_text("token_warm_start=maybe\n")
    assert config.parse_config_text("token_warm_start=false\n") == {
        "token_warm_start": False}


def test_build_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=5\nepochs=7\n")
    rc = config.build_config(str(path), ["seed=9"])
    assert rc.seed == 9       # --set beats the file
    assert rc.epochs == 7     # file beats the default
    assert rc.batch_size == 256  # untouched default


def test_build_config_rejects_unknown_override():
    with pytest.raises(config.ConfigError, match="unknown config key"):
        config.build_config(None, ["nope=1"])
    with pytest.raises(config.ConfigError, match="key=value"):
        config.build_config(None, ["seed"])


def test_build_config_rejects_bad_variant():
    with pytest.raises(config.ConfigError, match="unknown variant"):
        config.build_config(None, ["variant=bogus"])


def test_build_config_missing_file():
    with pytest.raises(config.ConfigError, match="cannot read config file"):
        config.build_config("/nonexistent/run.cfg", [])


def test_model_config_derives_item_dim():
    rc = config.build_config(None, ["rq_levels=3", "d_token=8"])
    assert config.model_config(rc).d_item == 24


@pytest.mark.parametrize("setting, message", [
    ("ablate_variants=full,ful", "config key 'ablate_variants': unknown variant 'ful'"),
    ("ablate_seeds=0,x", "config key 'ablate_seeds': invalid literal for int() with base 10: 'x'"),
    ("ablate_variants= ,", "config key 'ablate_variants': empty list"),
    ("ablate_seeds=", "config key 'ablate_seeds': empty list"),
    ("variant=gate_item_only", "config key 'variant': unknown variant 'gate_item_only'; "
     "expected one of ('full', 'no_grca', 'no_gfsa', 'avg_fusion')"),
    ("ablate_variants=full,gate_stats_only",
     "config key 'ablate_variants': unknown variant 'gate_stats_only'; "
     "expected one of ('full', 'no_grca', 'no_gfsa', 'avg_fusion')"),
    ("epochs=0", "config key 'epochs': must be at least 1, got 0"),
    ("rq_epochs=0", "config key 'rq_epochs': must be at least 1, got 0"),
    ("batch_size=0", "config key 'batch_size': must be at least 1, got 0"),
    ("rq_batch=-1", "config key 'rq_batch': must be at least 1, got -1"),
    ("tau=0", "config key 'tau': must be above 0, got 0.0"),
    ("tau=-0.1", "config key 'tau': must be above 0, got -0.1"),
    ("tau=nan", "config key 'tau': must be finite, got nan"),
    ("lr=nan", "config key 'lr': must be finite, got nan"),
    ("lr=inf", "config key 'lr': must be finite, got inf"),
    ("rq_lr=-inf", "config key 'rq_lr': must be finite, got -inf"),
    ("token_target_norm=nan", "config key 'token_target_norm': must be finite, got nan"),
], ids=["variant", "seed", "no-variant", "no-seed", "deleted-variant", "deleted-ablate-variant",
        "epochs", "rq-epochs", "batch-size", "rq-batch", "tau-zero", "tau-negative", "tau-nan",
        "lr-nan", "lr-inf", "rq-lr-minus-inf", "run-level-float-nan"])
def test_ablate_rejects_bad_list_entry(tmp_path, capsys, setting, message):
    with pytest.raises(config.ConfigError, match=re.escape(message)):
        config.build_config(None, [setting])
    cfg = write_tiny_config(tmp_path)
    code, out, err = run_cli(capsys, "ablate", "--config", cfg, "--set", setting)
    assert code == 1 and out == "" and message in err, err
    assert not (tmp_path / "ablation.csv").exists()


# RunConfig keys that no per-module view reads: the seed, artifact paths and
# settings the CLI applies itself
RUN_LEVEL_KEYS = {"seed", "token_warm_start", "token_target_norm",
                  "ablate_variants", "ablate_seeds"}
# keys that two views read on purpose: the corpus and the quantizer share the
# content width; the quantizer and the model share the SID shape
SHARED_KEYS = {"content_dim", "rq_levels", "rq_codes"}


class KeyRecorder:
    """Stands in for a RunConfig and records every key read from it."""

    def __init__(self, rc):
        self._rc = rc
        self.read = set()

    def __getattr__(self, key):
        self.read.add(key)
        return getattr(self._rc, key)


def test_config_views_wire_every_key():
    views = {"corpus": config.corpus_config, "rqvae": config.rqvae_config,
             "model": config.model_config, "train": config.train_config}
    readers = {}
    for name, view in views.items():
        rec = KeyRecorder(config.RunConfig())
        view(rec)
        for key in rec.read:
            readers.setdefault(key, set()).add(name)
    fields = {f.name for f in dataclasses.fields(config.RunConfig)}
    run_level = RUN_LEVEL_KEYS | {k for k in fields if k.endswith(("_path", "_dir",
                                                                   "_json", "_csv"))}
    assert set(readers) <= fields
    assert not set(readers) & run_level
    assert set(readers) | run_level == fields, "RunConfig keys no view reads"
    for key, names in readers.items():
        assert len(names) == (2 if key in SHARED_KEYS else 1), (key, names)
    # the quantizer never takes the ranking model's training values
    rc = config.build_config(None, ["epochs=7", "batch_size=64", "lr=0.5"])
    rq = config.rqvae_config(rc)
    assert (rq.epochs, rq.batch_size, rq.lr) == (10, 256, 1e-3)


def test_config_view_defaults_match_module_defaults():
    rc = config.RunConfig()
    assert config.corpus_config(rc) == synthcorpus.CorpusConfig()
    assert config.rqvae_config(rc) == rqvae.RqVaeConfig()
    assert config.train_config(rc) == train.TrainConfig()
    assert config.model_config(rc) == ModelConfig()


# ---------------------------------------------------------------------------
# CLI plumbing


TINY = """
n_users=40
n_items=150
n_impressions=2500
n_days=10
content_dim=16
n_topics=4
l_max=8
factor_dim=8
factor_clusters=6
rq_latent_dim=8
rq_levels=3
rq_codes=8
rq_hidden=16
rq_epochs=3
d_token=8
d_user=8
attn_dim=8
gate_hidden=8
head_hidden1=32
head_hidden2=16
epochs=1
batch_size=256
"""


def write_tiny_config(tmp_path, name="run.cfg", extra=""):
    root = str(tmp_path)
    text = TINY + f"""
corpus_dir={root}/corpus
codebook_path={root}/codebook.rqv
sid_table_path={root}/sids.csv
model_path={root}/model.ckpt
report_path={root}/report.json
ablation_json={root}/ablation.json
ablation_csv={root}/ablation.csv
""" + extra
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_hashes(root):
    return {p: file_hash(p) for p in map(str, root.rglob("*")) if os.path.isfile(p)}


# stage input -> (stages run before, the stage that reads it, the missing file)
MISSING_INPUTS = {
    "corpus": ([], "train", "corpus/items.csv"),
    "codebook": (["gen-data"], "encode-sids", "codebook.rqv"),
    "sids": (["gen-data"], "train", "sids.csv"),
    "checkpoint": (["gen-data"], "eval", "model.ckpt"),
}


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_artifact_exit_code(tmp_path, capsys, case):
    before, stage, name = MISSING_INPUTS[case]
    cfg = write_tiny_config(tmp_path)
    for cmd in before:
        assert run_cli(capsys, cmd, "--config", cfg, "--seed", "3")[0] == 0
    code, out, err = run_cli(capsys, stage, "--config", cfg)
    assert code == 2 and out == ""
    assert err == f"missing prerequisite artifact: {tmp_path / name}\n"


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code, _, err = run_cli(capsys, "gen-data", "--config", cfg, "--set", "nope=1")
    assert code == 1
    assert "unknown config key" in err


def test_bad_config_value_exit_code(capsys):
    code, _, err = run_cli(capsys, "gen-data", "--set", "epochs=soon")
    assert code == 1
    assert "config error" in err


def test_loop_count_below_one_writes_nothing(tmp_path, capsys):
    # refused while the config is read, before the stage writes its artifact
    cfg = write_tiny_config(tmp_path)
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        assert run_cli(capsys, cmd, "--config", cfg, "--seed", "3")[0] == 0

    before = tree_hashes(tmp_path)
    for stage, setting in (("train-rqvae", "rq_epochs=0"), ("train-rqvae", "rq_batch=0"),
                           ("train", "epochs=0"), ("train", "batch_size=0"), ("train", "tau=0"),
                           ("train", "tau=nan"), ("train", "lr=inf")):
        key = setting.split("=")[0]
        code, out, err = run_cli(capsys, stage, "--config", cfg, "--set", setting)
        assert code == 1 and out == "" and f"config key '{key}'" in err, err
        assert tree_hashes(tmp_path) == before, setting


def test_gen_data_deterministic_hashes(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    for run in ("a", "b"):
        code, out, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "7",
                               "--set", f"corpus_dir={tmp_path}/{run}")
        assert code == 0
        assert json.loads(out)["command"] == "gen-data"
    names = ["impressions.csv", "items.csv", "users.csv"]
    assert sorted(os.listdir(tmp_path / "a")) == names
    for name in names:
        assert file_hash(f"{tmp_path}/a/{name}") == file_hash(f"{tmp_path}/b/{name}")


def test_summary_carries_time_and_peak_rss(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code, out, _ = run_cli(capsys, "gen-data", "--config", cfg)
    assert code == 0
    summary = json.loads(out)
    assert 0 < summary["seconds"] < 60
    assert 10 < summary["peak_rss_mb"] < 10_000


def test_full_pipeline_end_to_end(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    seq = ["gen-data", "train-rqvae", "encode-sids", "train", "eval"]
    summaries = {}
    for cmd in seq:
        code, out, err = run_cli(capsys, cmd, "--config", cfg, "--seed", "11")
        assert code == 0, (cmd, err)
        summaries[cmd] = json.loads(out)

    assert summaries["train-rqvae"]["final_loss"] > 0
    assert all(0 < u <= 1 for u in summaries["train-rqvae"]["utilization"])
    assert summaries["encode-sids"]["n_items"] == 150

    with open(tmp_path / "report.json") as f:
        report = json.load(f)
    ctr_auc = report["metrics"]["ctr"]["all"]["auc"]
    assert 0.0 < ctr_auc < 1.0
    assert summaries["eval"]["ctr_auc"] == ctr_auc

    # the report carries the gate-age curve: bins over every item
    curve = report["gate"]["age_curve"]
    assert [set(row) for row in curve] == [{"age_lo", "age_hi", "n", "mean_w"}] * len(curve)
    assert sum(row["n"] for row in curve) == 150

    table = rqvae.load_sid_table(str(tmp_path / "sids.csv"), 150, 8, 3)
    assert table.shape == (151, 3)

    # rerunning the model-training stage reproduces the checkpoint bitwise
    h1 = file_hash(str(tmp_path / "model.ckpt"))
    code, _, _ = run_cli(capsys, "train", "--config", cfg, "--seed", "11")
    assert code == 0
    assert file_hash(str(tmp_path / "model.ckpt")) == h1

    # a checkpoint whose config has a key ModelConfig no longer has is refused
    arrays, meta = dk.load_arrays(str(tmp_path / "model.ckpt"))
    meta["config"]["d_item"] = 24
    dk.save_arrays(str(tmp_path / "model.ckpt"), arrays, meta)
    code, _, err = run_cli(capsys, "eval", "--config", cfg)
    assert code == 1
    assert "model.ckpt" in err and "unknown model config key 'd_item'" in err

    # so is one of a variant that no longer exists
    del meta["config"]["d_item"]
    meta["config"]["variant"] = "gate_item_only"
    dk.save_arrays(str(tmp_path / "model.ckpt"), arrays, meta)
    code, _, err = run_cli(capsys, "eval", "--config", cfg)
    assert code == 1
    assert "model.ckpt" in err and "unknown variant 'gate_item_only'" in err

    # a checkpoint with bytes after its last array is refused
    with open(tmp_path / "model.ckpt", "ab") as f:
        f.write(b"garbage")
    code, _, err = run_cli(capsys, "eval", "--config", cfg)
    assert code == 1
    assert "model.ckpt" in err and "trailing bytes" in err


def test_encode_sids_requires_encoder_weights(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code, _, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")
    assert code == 0
    # a codebook without the autoencoder weights cannot assign SIDs
    dk.save_arrays(str(tmp_path / "codebook.rqv"), {"codes": np.zeros((3, 8, 8))},
                   {"beta": 0.25, "seed": 0})
    code, _, err = run_cli(capsys, "encode-sids", "--config", cfg)
    assert code == 1
    assert "lacks encoder weights" in err


# case -> (stage, the config key naming the file, its name, its bytes or None for the
# SID table that save_sid_table writes there, message)
MALFORMED_CONTAINERS = {
    "sid-table-as-checkpoint": ("eval", "model_path", "sids.csv", None,
                                "the first line is not a UTF-8 JSON manifest"),
    "manifest-without-meta": ("eval", "model_path", "model.ckpt", b'{"arrays": []}\n',
                              "the manifest lacks 'meta'"),
    "array-without-shape": ("eval", "model_path", "model.ckpt",
                            b'{"arrays": [{"name": "a"}], "meta": {}}\n',
                            "entries with a 'name' and a 'shape'"),
    "codebook-without-codes": ("encode-sids", "codebook_path", "codebook.rqv",
                               b'{"arrays": [{"name": "ae.w", "shape": [1]}], "meta": {}}\n'
                               + bytes(8), "lacks codes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONTAINERS))
def test_malformed_container_names_the_file(tmp_path, capsys, case):
    stage, key, name, data, message = MALFORMED_CONTAINERS[case]
    cfg = write_tiny_config(tmp_path)
    assert run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")[0] == 0
    path = tmp_path / name
    if data is None:
        rqvae.save_sid_table(str(path), np.r_[1:151], np.zeros((150, 3), dtype=int))
    else:
        path.write_bytes(data)
    before = tree_hashes(tmp_path)
    code, out, err = run_cli(capsys, stage, "--config", cfg, "--set", f"{key}={path}")
    assert code == 1 and out == ""
    assert str(path) in err and message in err, err
    assert tree_hashes(tmp_path) == before


@pytest.mark.parametrize("shaped_for, scored_on", [("a", "b"), ("b", "a")])
def test_eval_refuses_a_checkpoint_of_another_corpus(tmp_path, capsys, shaped_for, scored_on):
    counts = {"a": (150, 40), "b": (100, 30)}  # (items, users) of two tiny corpora
    cfg = write_tiny_config(tmp_path)
    for name, (n_items, n_users) in counts.items():
        assert run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3",
                       "--set", f"corpus_dir={tmp_path}/{name}", "--set", f"n_items={n_items}",
                       "--set", f"n_users={n_users}")[0] == 0
    (n_ckpt, u_ckpt), (n_data, u_data) = counts[shaped_for], counts[scored_on]
    rc = config.build_config(cfg)
    ckpt = tmp_path / "model.ckpt"
    GateSidModel(n_ckpt, u_ckpt, np.zeros((n_ckpt + 1, rc.rq_levels), dtype=np.int64),
                 config.model_config(rc)).save(str(ckpt))
    code, out, err = run_cli(capsys, "eval", "--config", cfg,
                             "--set", f"corpus_dir={tmp_path}/{scored_on}")
    assert code == 1 and out == ""
    assert err == (f"error: {ckpt}: the checkpoint has {n_ckpt} items and {u_ckpt} users, "
                   f"the corpus {tmp_path}/{scored_on} has {n_data} items and {u_data} users\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("item_ids, levels, bad_codes, bad_line, message", [
    # last 10 rows dropped
    (np.r_[1:141], 3, [], None, "missing item ids [141, 142, 143, 144, 145]"),
    (np.r_[1:151, 7, 9], 3, [], None, "duplicate item ids [7, 9]"),
    (np.r_[1:152], 3, [], None, "out-of-range item ids [151]"),
    # (item id, level, code) at rq_codes=8; seven bad items, the first five named
    (np.r_[1:151], 3, [(90, 0, 99), (12, 2, 8), (40, 1, -1), (5, 0, 8), (77, 1, 9),
                       (120, 2, 50), (150, 0, 8)], None,
     "SID codes outside [0, 8) at item ids [5, 12, 40, 77, 90]"),
    # (file line, its new text): the error names the file line, not a data row
    (np.r_[1:151], 3, [], (4, "3,abc,0,0"),
     "sids.csv line 4: could not convert string 'abc' to int64"),
    (np.r_[1:151], 3, [], (4, "3,0,0,0,0"), "sids.csv line 4: 5 fields, the header has 4"),
    # a table encoded at another rq_levels than the run's
    (np.r_[1:151], 4, [], None, "sids.csv: 4 SID levels, but rq_levels=3"),
], ids=["missing", "duplicate", "out-of-range", "bad-code", "non-integer", "extra-field",
        "level-count"])
def test_train_rejects_bad_sid_table(tmp_path, capsys, item_ids, levels, bad_codes, bad_line,
                                     message):
    cfg = write_tiny_config(tmp_path)
    code, _, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")
    assert code == 0
    sids = np.zeros((item_ids.size, levels), dtype=np.int64)
    for item, level, value in bad_codes:
        sids[item - 1, level] = value  # row i holds item i + 1 in this case
    path = tmp_path / "sids.csv"
    rqvae.save_sid_table(str(path), item_ids, sids)
    if bad_line is not None:
        lines = path.read_text().splitlines()
        lines[bad_line[0] - 1] = bad_line[1]
        path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "train", "--config", cfg)
    assert code == 1
    assert "sids.csv" in err and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["corpus/items.csv", "sids.csv"])
def test_train_rejects_header_only_csv(tmp_path, capsys, name):
    # numpy's loadtxt only warns about a file without data lines
    cfg = write_tiny_config(tmp_path)
    assert run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")[0] == 0
    rqvae.save_sid_table(str(tmp_path / "sids.csv"), np.r_[1:151], np.zeros((150, 3), dtype=int))
    path = tmp_path / name
    path.write_text(path.read_text().split("\n")[0] + "\n")
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--set", "token_warm_start=false")
    assert code == 1 and f"{path}: no data lines" in err, err


def test_train_rejects_history_longer_than_l_max(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)  # corpus histories up to l_max=8
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        code, _, _ = run_cli(capsys, cmd, "--config", cfg, "--seed", "3")
        assert code == 0
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--set", "l_max=4")
    assert code == 1
    assert re.search(r"impressions\.csv line \d+: history of [5-8] items is longer than "
                     r"l_max=4", err), err


def test_train_rejects_impression_days_outside_n_days(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)  # corpus days 0..9
    code, _, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")
    assert code == 0
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--set", "n_days=5")
    assert code == 1
    assert re.search(r"impressions\.csv line \d+: impression day [5-9] is outside "
                     r"\[0, n_days=5\)", err), err


def test_train_rejects_empty_test_split(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)  # corpus days 0..9
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        code, _, _ = run_cli(capsys, cmd, "--config", cfg, "--seed", "3")
        assert code == 0
    # 30 days at test_frac 0.2 put the cutoff at day 24, after the last impression
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--set", "n_days=30")
    assert code == 1
    assert "the test split is empty at cutoff day 24 (n_days=30)" in err, err
    assert "the corpus has days 0..9" in err, err
    assert not (tmp_path / "model.ckpt").exists()


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _set_field(lines, i, col, value):
    fields = lines[i].split(",")
    fields[col] = value
    lines[i] = ",".join(fields)


def _set_history_id(lines, value):
    """Set the first id of the first stored history; returns its line number."""
    i = next(i for i in range(1, len(lines)) if lines[i].split(",")[2])
    hist = lines[i].split(",")[2].split("|")
    _set_field(lines, i, 2, "|".join([value] + hist[1:]))
    return i + 1


def _set_line_fields(lines, i, fields):
    lines[i] = ",".join(fields)


def _pay_without_click(lines):
    """Set pay=1 on the first impression without a click; returns its line number."""
    i = next(i for i in range(1, len(lines)) if lines[i].split(",")[3] == "0")
    _set_field(lines, i, 4, "1")
    return i + 1


# case -> (file, edit of its lines, message); an edit that returns a line
# number also asks for that impressions.csv line in the message. The tiny
# corpus has users 0..39 and items 1..150.
CORRUPT_CORPUS = {
    "items-out-of-order": ("items.csv", lambda ls: _swap(ls, 1, 2),
                           "items.csv line 2: id 2 is out of order (ids run 1..150 in row order)"),
    "items-not-a-number": ("items.csv", lambda ls: _set_field(ls, 3, 2, "abc"),
                           "items.csv line 4: could not convert string 'abc' to float"),
    "users-not-a-number": ("users.csv", lambda ls: _set_field(ls, 5, 3, "1.2.3"),
                           "users.csv line 6: could not convert string '1.2.3' to float"),
    "items-short-line": ("items.csv", lambda ls: _set_line_fields(ls, 3, ls[3].split(",")[:-1]),
                         "items.csv line 4: 27 fields, the header has 28"),
    "users-long-line": ("users.csv", lambda ls: _set_line_fields(ls, 3, ls[3].split(",") + ["0"]),
                        "users.csv line 4: 27 fields, the header has 26"),
    "items-fractional-age": ("items.csv", lambda ls: _set_field(ls, 3, 1, "3.5"),
                             "items.csv line 4: age 3.5 is not an integer"),
    "users-out-of-order": ("users.csv", lambda ls: _swap(ls, 5, 6),
                           "users.csv line 6: id 5 is out of order (ids run 0..39 in row order)"),
    "impression-user": ("impressions.csv", lambda ls: _set_field(ls, 3, 0, "40"),
                        "impressions.csv line 4: user id 40 is outside the users 0..39"),
    "impression-item": ("impressions.csv", lambda ls: _set_field(ls, 3, 1, "151"),
                        "impressions.csv line 4: item id 151 is outside the items 1..150"),
    "history-item": ("impressions.csv", lambda ls: _set_history_id(ls, "151"),
                     "history item id 151 is outside the items 1..150"),
    "history-zero": ("impressions.csv", lambda ls: _set_history_id(ls, "0"),
                     "history item id 0 is outside the items 1..150"),
    "impression-not-an-integer": ("impressions.csv", lambda ls: _set_field(ls, 3, 1, "x"),
                                  "impressions.csv line 4: not six integer fields"),
    "history-not-an-integer": ("impressions.csv", lambda ls: _set_history_id(ls, "x"),
                               "not six integer fields"),
    "impression-too-few-fields": ("impressions.csv",
                                  lambda ls: _set_line_fields(ls, 3, ls[3].split(",")[:4]),
                                  "impressions.csv line 4: not six integer fields"),
    "impression-extra-field": ("impressions.csv",
                               lambda ls: _set_line_fields(ls, 3, ls[3].split(",") + ["1"]),
                               "impressions.csv line 4: not six integer fields"),
    "impression-out-of-int64": ("impressions.csv",
                                lambda ls: _set_field(ls, 3, 1, "99999999999999999999"),
                                "impressions.csv line 4: 99999999999999999999 is outside the "
                                "int64 range"),
    "impression-click": ("impressions.csv", lambda ls: _set_field(ls, 3, 3, "7"),
                         "impressions.csv line 4: click 7 is not 0 or 1"),
    "impression-pay-without-click": ("impressions.csv", _pay_without_click,
                                     "pay 1 on an impression without a click"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CORPUS))
def test_train_rejects_corrupt_corpus_ids(tmp_path, capsys, case):
    name, mutate, message = CORRUPT_CORPUS[case]
    cfg = write_tiny_config(tmp_path)
    code, _, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")
    assert code == 0
    rqvae.save_sid_table(str(tmp_path / "sids.csv"), np.r_[1:151], np.zeros((150, 3), dtype=int))
    path = tmp_path / "corpus" / name
    lines = path.read_text().split("\n")
    line = mutate(lines)
    path.write_text("\n".join(lines))
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--set", "token_warm_start=false")
    assert code == 1, err
    assert message in err, err
    if line is not None:
        assert f"impressions.csv line {line}: {message}" in err, err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_rqvae_rejects_content_width_mismatch(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code, _, _ = run_cli(capsys, "gen-data", "--config", cfg, "--seed", "3")
    assert code == 0
    # the corpus on disk is 16 wide; a run config that says 8 must not slice it
    code, _, err = run_cli(capsys, "train-rqvae", "--config", cfg, "--set", "content_dim=8")
    assert code == 1
    assert "(N, 8)" in err


def nan_loss_at_step(monkeypatch, step):
    """Make GateSidModel.loss return NaN on its call number ``step`` (from 0)."""
    real_loss = GateSidModel.loss
    calls = []

    def loss(self, batch, contrast_w=None):
        total, parts = real_loss(self, batch, contrast_w)
        calls.append(1)
        return (dk.affine(total, np.nan) if len(calls) == step + 1 else total), parts

    monkeypatch.setattr(GateSidModel, "loss", loss)


def test_train_model_stops_on_non_finite_loss(monkeypatch, small_corpus, small_sid_table):
    nan_loss_at_step(monkeypatch, 2)
    steps = []
    real_step = dk.AdamW.step

    def step(opt):
        steps.append(1)
        real_step(opt)

    monkeypatch.setattr(dk.AdamW, "step", step)
    overrides = dict(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                     attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    with pytest.raises(rqvae.DivergenceError,
                       match="variant no_grca: non-finite loss at epoch 0 step 2"):
        train.train_model(small_corpus, small_sid_table,
                          ModelConfig(variant="no_grca", **overrides),
                          train_config=train.TrainConfig(epochs=1, batch_size=128))
    assert len(steps) == 2  # the NaN loss never reached the optimizer


def test_train_command_exits_on_non_finite_loss(tmp_path, capsys, monkeypatch):
    cfg = write_tiny_config(tmp_path)
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        code, _, _ = run_cli(capsys, cmd, "--config", cfg, "--seed", "3")
        assert code == 0
    nan_loss_at_step(monkeypatch, 2)
    code, out, err = run_cli(capsys, "train", "--config", cfg, "--seed", "3")
    assert code == 1 and out == ""
    assert "variant full: non-finite loss at epoch 0 step 2" in err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_command_names_the_step_of_an_op_failure(tmp_path, capsys):
    # an lr that overflows the first update: an op of the next step's forward
    # pass meets the non-finite values. numpy's overflow warnings are off:
    # the test run's -W flags would make them errors, a plain run prints them
    cfg = write_tiny_config(tmp_path)
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        assert run_cli(capsys, cmd, "--config", cfg, "--seed", "3")[0] == 0
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "train", "--config", cfg, "--seed", "3",
                                 "--set", "lr=1e300")
    assert code == 1 and out == ""
    assert "variant full: sigmoid: non-finite input at epoch 0 step 1" in err, err
    assert not (tmp_path / "model.ckpt").exists()


def test_ablate_command_degenerate(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, extra="ablate_variants=full\nablate_seeds=0\n")
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        code, _, _ = run_cli(capsys, cmd, "--config", cfg, "--seed", "11")
        assert code == 0
    code, out, err = run_cli(capsys, "ablate", "--config", cfg, "--seed", "11")
    assert code == 0, err
    with open(tmp_path / "ablation.json") as f:
        payload = json.load(f)
    assert set(payload["cells"]) == {"full:0"}
    assert "ctr_auc" in payload["summary"]["full"]
    with open(tmp_path / "ablation.csv") as f:
        assert f.readline().startswith("variant,ctr_auc")


def test_ablate_command_exits_on_a_failed_cell(tmp_path, capsys, monkeypatch):
    cfg = write_tiny_config(tmp_path, extra="ablate_variants=full,no_grca\nablate_seeds=0,1\n")
    for cmd in ("gen-data", "train-rqvae", "encode-sids"):
        code, _, _ = run_cli(capsys, cmd, "--config", cfg, "--seed", "11")
        assert code == 0
    real_train = train.train_model

    def train_model(corpus, sid_table, model_config, **kwargs):
        if model_config.variant == "no_grca":
            raise RuntimeError("boom")
        return real_train(corpus, sid_table, model_config, **kwargs)

    monkeypatch.setattr(train, "train_model", train_model)
    code, out, err = run_cli(capsys, "ablate", "--config", cfg, "--seed", "11")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: 2 of 4 ablation cells failed; first no_grca:0: boom"
    # both files are written, the failed cells as their error strings
    with open(tmp_path / "ablation.json") as f:
        payload = json.load(f)
    assert payload["cells"]["no_grca:0"] == payload["cells"]["no_grca:1"] == "error: boom"
    assert 0.0 < payload["cells"]["full:1"]["metrics"]["ctr"]["all"]["auc"] < 1.0
    with open(tmp_path / "ablation.csv") as f:
        assert f.read().splitlines()[2] == "no_grca,,,,"


def test_readme_command_block_lists_the_cli_commands():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = readme.split("## Pipeline", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("gatesid ")]
    assert listed == list(cli.COMMANDS) == [
        "gen-data", "train-rqvae", "encode-sids", "train", "eval", "ablate"]


@pytest.mark.parametrize("command", ["grad-check", "export-emb"])
def test_removed_commands_are_unknown(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_log_level_env(monkeypatch):
    import logging
    monkeypatch.setenv("GATESID_LOG", "debug")
    cli._setup_logging()
    monkeypatch.setenv("GATESID_LOG", "not-a-level")
    cli._setup_logging()  # unknown values fall back to quiet without crashing
    logging.disable(logging.NOTSET)
