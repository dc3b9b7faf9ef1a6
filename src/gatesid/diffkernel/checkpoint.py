"""Checkpoint file format: one JSON manifest line, then little-endian
float64 blobs, one per named array, concatenated in manifest order. The
text artifacts go through the writers here too: every CSV through
``write_csv`` (and back through ``read_csv``), every JSON report through
``write_json``, and both through the atomic writers."""

import json
import math
import os
import warnings

import numpy as np


def atomic_write_bytes(path, data):
    """Write via temp file + rename so readers never see partial files. The
    file gets the mode ``open(path, "w")`` would give it: 0o666 masked by the
    umask (``tempfile.mkstemp`` would give 0o600)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


CSV_BLOCK = 1024  # rows whose Python numbers write_csv holds at once


def write_csv(path, header, *columns):
    """Write the header and line i: entry i of each column (an (n,) array, an (n, k) array
    or a list of str) as .tolist() prints it; rows become Python numbers a block at a time."""
    lines = [",".join(header)]
    for lo in range(0, len(columns[0]), CSV_BLOCK):
        block = [col[lo:lo + CSV_BLOCK] for col in columns]
        fields = [col if isinstance(col, list) else map(str, col.tolist()) if col.ndim == 1
                  else [",".join(map(str, row)) for row in col.tolist()] for col in block]
        lines += map(",".join, zip(*fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path, dtype=np.float64):
    """Header fields and (n, k) rows of a numeric CSV. No data lines, or a line
    numpy cannot parse, is a ValueError that names the file (and the line)."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        try:
            with warnings.catch_warnings():  # refused, not just warned about
                warnings.filterwarnings("error", "loadtxt: input contained no data")
                return header, np.loadtxt(f, delimiter=",", ndmin=2, dtype=dtype)
        except UserWarning:
            raise ValueError(f"{path}: no data lines") from None
        except ValueError as exc:
            f.seek(0)  # name the first line that numpy rejects on its own
            for k, line in enumerate(f.read().splitlines()[1:], start=2):
                data = line.split("#")[0]  # loadtxt skips blank and comment lines
                if not data:
                    continue
                # a line of another width parses alone; loadtxt objects only to the change
                fields = data.count(",") + 1
                if fields != len(header):
                    raise ValueError(f"{path} line {k}: {fields} fields, "
                                     f"the header has {len(header)}") from None
                try:
                    np.loadtxt([line], delimiter=",", ndmin=2, dtype=dtype)
                except ValueError as line_exc:  # loadtxt's " at row 0, ..." counts this line alone
                    raise ValueError(f"{path} line {k}: "
                                     + str(line_exc).split(" at row ")[0]) from None
            raise ValueError(f"{path}: {exc}") from None


def write_json(path, obj):
    """obj as indented JSON with sorted keys, one trailing newline."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def save_arrays(path, arrays, meta=None):
    manifest = {
        "meta": meta or {},
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    chunks = [json.dumps(manifest, sort_keys=True).encode("utf-8"), b"\n"]
    for v in arrays.values():
        chunks.append(np.ascontiguousarray(v, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(chunks))


def load_arrays(path):
    """(arrays, meta) of a ``save_arrays`` file. A first line that is not a
    UTF-8 JSON manifest with ``meta`` and ``arrays``, an array entry without a
    ``name`` or a ``shape`` (a list of non-negative integers), a manifest
    whose arrays need more bytes than the file holds after it, or trailing
    bytes is an error that names the file. The sizes are checked before any
    blob is read, so a manifest's shapes never size an allocation the file
    cannot fill."""
    with open(path, "rb") as f:
        try:
            manifest = json.loads(f.readline().decode("utf-8"))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError both are
            raise ValueError(f"{path}: the first line is not a UTF-8 JSON manifest") from None
        for key in ("meta", "arrays"):
            if not isinstance(manifest, dict) or key not in manifest:
                raise ValueError(f"{path}: the manifest lacks '{key}'")
        entries = manifest["arrays"]
        if not (isinstance(entries, list) and all(
                isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in e["shape"]) for e in entries)):
            raise ValueError(f"{path}: the manifest's 'arrays' must list entries with a "
                             "'name' and a 'shape' of non-negative integers")
        left, end = os.fstat(f.fileno()).st_size - f.tell(), 0
        for entry in entries:
            end += 8 * math.prod(entry["shape"])
            if end > left:
                raise ValueError(f"{path}: array '{entry['name']}' does not fit: the arrays "
                                 f"up to it need {end} bytes, the file holds {left} after "
                                 "the manifest")
        if end < left:
            raise IOError(f"{path}: trailing bytes after the last array")
        arrays = {}
        for entry in entries:
            shape = tuple(entry["shape"])
            buf = f.read(8 * math.prod(shape))
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return arrays, manifest["meta"]
