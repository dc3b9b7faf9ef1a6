"""Run one gatesid pipeline stage in process with timing wrappers.

Usage: python3 perfbench/tracer.py SPANS_JSON <gatesid cli arguments>

The public functions that the pipeline stages call are replaced by wrappers
that record a span (name, start, end, parent span) per call, then the stage
runs through ``gatesid.cli.main`` exactly as the ``gatesid`` command would
run it. Spans are kept in memory and written to SPANS_JSON when the stage
ends. The wrappers read clocks and keep references to a few results; they
never change a value, so the stage writes the same artifact bytes as an
untraced run (run.py checks this).
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name). Callers inside gatesid look these up as
# module or class attributes at call time, so replacing the attribute
# reaches every call site, including calls made inside the same module.
TARGETS = [
    ("gatesid.synthcorpus", "generate_corpus", "synthcorpus.generate_corpus"),
    ("gatesid.synthcorpus", "save_corpus", "synthcorpus.save_corpus"),
    ("gatesid.synthcorpus", "load_corpus", "synthcorpus.load_corpus"),
    ("gatesid.synthcorpus", "impression_stat_features", "synthcorpus.impression_stat_features"),
    ("gatesid.rqvae", "kmeans_fit", "rqvae.kmeans_fit"),
    ("gatesid.rqvae", "rq_encode_batch", "rqvae.rq_encode_batch"),
    ("gatesid.rqvae", "train_rqvae", "rqvae.train_rqvae"),
    ("gatesid.rqvae", "assign_sids", "rqvae.assign_sids"),
    ("gatesid.rqvae", "save_sid_table", "rqvae.save_sid_table"),
    ("gatesid.rqvae", "load_sid_table", "rqvae.load_sid_table"),
    ("gatesid.train", "train_model", "train.train_model"),
    ("gatesid.train", "make_batch", "train.make_batch"),
    ("gatesid.model", "GateSidModel.loss", "model.loss"),
    ("gatesid.model", "GateSidModel.predict", "model.predict"),
    ("gatesid.diffkernel", "backward", "diffkernel.backward"),
    ("gatesid.diffkernel", "AdamW.step", "diffkernel.adamw_step"),
    ("gatesid.diffkernel", "AdamW.zero_grad", "diffkernel.adamw_zero_grad"),
    ("gatesid.diffkernel", "save_arrays", "diffkernel.save_arrays"),
    ("gatesid.diffkernel", "load_arrays", "diffkernel.load_arrays"),
    ("gatesid.evalkit", "evaluate_model", "evalkit.evaluate_model"),
    ("gatesid.evalkit", "auc", "evalkit.auc"),
    ("gatesid.evalkit", "gauc", "evalkit.gauc"),
]


class Recorder:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._hist = {}  # span index -> hist_ids array of a make_batch result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if name == "train.make_batch":
                self._hist[idx] = result["hist_ids"]
            elif name == "diffkernel.backward" and len(args) > 1:
                span["tape_ops"] = len(args[1]._ops)
            return result
        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def dump(self, path):
        # history statistics are taken after the stage, off the timed path
        import numpy as np
        for idx, hist in self._hist.items():
            used = hist[hist > 0]
            self.spans[idx]["hist_slots"] = int(used.size)
            self.spans[idx]["hist_distinct"] = int(np.unique(used).size)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS_JSON <gatesid cli arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from gatesid import cli
    code = cli.main(argv[1:])
    recorder.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
