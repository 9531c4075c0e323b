"""Command-line front door.

``main`` rejects count flags below 1, checks that every seed is an integer
in [0, 2^63) and resolves every unset seed flag (flag >
LANDSCAPE_ATLAS_SEED environment variable > built-in default) once, before
any subcommand runs.  Every subcommand records the full seed set in
the output metadata and writes files atomically, so identical invocations
produce byte-identical files.

Exit codes: 0 success, 2 usage error (no output files written), 1 runtime
error.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import tempfile
from contextlib import nullcontext
from functools import partial
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .ela.features import FEATURE_NAMES, FeatureVector, compute_features, normalize_features
from .ela.sampling import lhs_sample
from .errors import LandscapeError, ManifestMismatch
from .mario.sim import (
    AGENT_KINDS, air_time, basic_fitness, simulate, time_taken,
)
from .mario.tiles import render_ascii
from .problems.core import (
    ProblemId, ProblemInstance, _design_groups, decode_instance_level,
    evaluate, instance_agent, list_problems, resolve,
)
from .properties.corpus import CORPUS_INSTANCE_SEEDS, load_labels
from .properties.models import (
    DEFAULT_TREES, PROPERTY_NAMES, LabelledRow, PropertyModel, _feature_array,
    _vote, lofo_cv, train,
)
from .similarity import DEFAULT_ITERATIONS, DEFAULT_PERPLEXITY, kl_trace, tsne_embed
from .walks import walk_bundle

_TOOL = f"landscape-atlas {__version__}"

_SEED_ENV = "LANDSCAPE_ATLAS_SEED"
_COUNT_FLAGS = ("dim", "directions", "jobs", "trees", "iterations")
_DEFAULT_SEEDS = {
    "instance": 1,
    "anchor_seed": 1,
    "sample_seed": 1,
    "feature_seed": 0,
    "train_seed": 0,
    "embed_seed": 0,
}


class UsageError(Exception):
    """Semantic flag error detected before any computation or output."""


# --------------------------------------------------------------------------
# formatting and file plumbing

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".landscape-atlas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _env_record() -> str:
    """The environment seed as every output's env_seed field records it."""
    return os.environ.get(_SEED_ENV, "unset")


def _seed(value, name: str) -> int:
    """value as a seed: an integer in [0, 2^63), or a usage error naming
    the flag or variable it came from."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2 ** 63:
        raise UsageError(f"{name} must be an integer in [0, 2^63), "
                         f"got {value!r}")
    return seed


def _resolve_seeds(args) -> None:
    """Check every seed flag the subcommand takes (each value of a list)
    and fill each unset one, in place, from the environment override or
    else the default; the override is read only when some seed is unset."""
    names = [name for name in _DEFAULT_SEEDS if hasattr(args, name)]
    unset = [name for name in names if getattr(args, name) is None]
    raw = os.environ.get(_SEED_ENV) if unset else None
    env = None if raw is None else _seed(raw, _SEED_ENV)
    for name in names:
        value = getattr(args, name)
        if value is None:
            setattr(args, name, _DEFAULT_SEEDS[name] if env is None else env)
        else:
            for seed in value if isinstance(value, list) else [value]:
                _seed(seed, "--" + name.replace("_", "-"))


def _meta_block(command: str, pairs: list[tuple[str, object]]) -> str:
    lines = [f"# tool: {_TOOL}", f"# command: {command}",
             f"# env_seed: {_env_record()}"]
    lines += [f"# {k}: {_fmt(v)}" for k, v in pairs]
    return "".join(line + "\n" for line in lines)


def _csv(command: str, meta: list[tuple[str, object]], header: list[str],
         rows: list[list]) -> str:
    body = [",".join(header)]
    body += [",".join(_fmt(v) for v in row) for row in rows]
    return _meta_block(command, meta) + "".join(line + "\n" for line in body)


def _json_doc(command: str, meta: list[tuple[str, object]], payload: dict) -> str:
    doc = {"tool": _TOOL, "command": command, "env_seed": _env_record()}
    doc.update({k: v for k, v in meta})
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# argument helpers

def _point_type(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "expected comma-separated reals") from exc


def _int_list_type(text: str) -> list[int]:
    """Comma lists and inclusive ranges: '1,3', '1-7', '1-3,5'."""
    out: list[int] = []
    try:
        for tok in text.split(","):
            tok = tok.strip()
            dash = tok.find("-", 1)  # position 0 would be a minus sign
            if dash > 0:
                lo, hi = int(tok[:dash]), int(tok[dash + 1:])
                if hi < lo:
                    raise argparse.ArgumentTypeError(
                        f"range {tok} ends below its start")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(tok))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "expected integers, comma lists, or ranges like 1-7") from exc
    return out


def _problem_list_type(text: str) -> list[str]:
    """Comma list of problem ids, in which 'mario' stands for m1..m28 and
    'baselines' for the 16 baselines."""
    suites = {"mario": "mario", "baselines": "baseline"}
    problems = []
    for tok in (tok.strip() for tok in text.split(",")):
        if tok in suites:
            problems += [row["problem"] for row in list_problems()
                         if row["suite"] == suites[tok]]
        elif tok:
            problems.append(tok)
    if not problems:
        raise argparse.ArgumentTypeError("names no problem")
    return problems


def _x_header(d: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)]


# --------------------------------------------------------------------------
# subcommands

def _cmd_list(args) -> int:
    rows = list_problems()
    header = ["problem", "suite", "description", "box", "seeds"]
    if args.format == "json":
        text = _json_doc("list", [], {"problems": rows})
    else:
        # descriptions contain commas; quote that column
        data = [[r["problem"], r["suite"], '"%s"' % r["description"],
                 '"%s"' % r["box"], r["seeds"]] for r in rows]
        text = _csv("list", [], header, data)
    _emit(text, args.out)
    return 0


def _instance(args) -> tuple[ProblemInstance, list[tuple[str, object]]]:
    """The instance the flags name, with --point (for the subcommands that
    take one) checked against its dimension, and its metadata pairs."""
    inst = resolve(args.problem, args.instance, args.dim)
    point = getattr(args, "point", None)
    if point is not None and point.shape != (args.dim,):
        raise UsageError(f"--point needs exactly {args.dim} comma-separated "
                         f"reals, got {point.size}")
    return inst, [("problem", inst.id.text), ("instance", args.instance),
                  ("dim", args.dim)]


def _cmd_eval(args) -> int:
    inst, meta = _instance(args)
    value = evaluate(inst, args.point)
    sys.stdout.write(_fmt(value) + "\n")
    if args.out:
        text = _csv("eval", meta, _x_header(args.dim) + ["value"],
                    [list(args.point) + [value]])
        _atomic_write(args.out, text)
    return 0


def _cmd_level(args) -> int:
    inst, meta = _instance(args)
    grid = decode_instance_level(inst, args.point)
    meta += [("height", grid.height), ("width", grid.width)]
    _emit(_meta_block("level", meta) + render_ascii(grid) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    inst, meta = _instance(args)
    agent = args.agent or instance_agent(inst)
    if agent is None:
        raise UsageError(
            "--agent is required for problems without a bound agent")
    grid = decode_instance_level(inst, args.point)
    path: list[tuple[int, int]] = []
    res = simulate(grid, agent, path)
    fields = [("agent", agent), ("won", res.won), ("d_level", res.d_level),
              ("t_level", res.t_level), ("n_coins", res.n_coins),
              ("t_g", res.t_g), ("t_tot", res.t_tot), ("t_max", res.t_max),
              ("basic_fitness", basic_fitness(res)),
              ("air_time", air_time(res)), ("time_taken", time_taken(res))]
    listing = "".join(f"{k}={_fmt(v)}\n" for k, v in fields)
    lines = [list(row) for row in render_ascii(grid).split("\n")]
    for r, c in path:
        lines[r][c] = "*"
    overlay = "\n".join("".join(row) for row in lines)
    _emit(_meta_block("simulate", meta) + listing + "\n" + overlay + "\n",
          args.out)
    return 0


def _cmd_walk(args) -> int:
    if args.step is not None and not (math.isfinite(args.step)
                                      and args.step > 0):
        raise UsageError(f"--step must be a positive real, got {args.step}")
    inst, meta = _instance(args)
    traces = walk_bundle(inst, args.anchor_seed, args.directions,
                         step=args.step)
    meta += [("anchor_seed", args.anchor_seed),
             ("directions", args.directions), ("step", traces[0].spec.step)]
    rows = []
    for walk_id, tr in enumerate(traces):
        for k, off in enumerate(tr.offsets):
            rows.append([walk_id, off] + list(tr.points[k]) + [tr.values[k]])
    header = ["walk_id", "offset"] + _x_header(args.dim) + ["y"]
    _emit(_csv("walk", meta, header, rows), args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.n < 2 * args.dim:
        raise UsageError(f"--n must be at least 2*dim = {2 * args.dim}, "
                         f"got {args.n}")
    inst, meta = _instance(args)
    s = lhs_sample(inst, args.n, args.sample_seed)
    meta += [("n", args.n), ("sample_seed", args.sample_seed)]
    rows = [list(s.X[i]) + [float(s.y[i])] for i in range(s.n)]
    _emit(_csv("sample", meta, _x_header(args.dim) + ["y"], rows), args.out)
    return 0


def _feature_docs(instances: list[ProblemInstance], n: int, sample_seed: int,
                  feature_seed: int) -> list[dict]:
    docs = []
    for inst in instances:
        fv = compute_features(lhs_sample(inst, n, sample_seed), feature_seed)
        docs.append({
            "problem": inst.id.text,
            "instance": inst.instance_seed,
            "n": n,
            "d": inst.dimension,
            "sample_seed": sample_seed,
            "feature_seed": feature_seed,
            "features": fv.values,
            "degenerate": list(fv.degenerate),
        })
    return docs


def _one_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS on one thread, so N workers
    use N cores, not N times the cores.  It sets the OpenBLAS that numpy's
    wheels bundle; with any other BLAS the worker keeps its default."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        set_threads = getattr(ctypes.CDLL(str(lib)),
                              "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


def _cmd_features(args) -> int:
    if args.n < 2 * args.dim + 2:
        raise UsageError(f"--n must be at least 2*dim + 2 = "
                         f"{2 * args.dim + 2}, got {args.n}")
    # a list from the flag; one seed when main filled it
    seeds = args.instance if isinstance(args.instance, list) else [args.instance]
    instances = []
    for problem in args.problem:
        for seed in seeds:
            inst = resolve(problem, seed, args.dim)  # validate first
            if inst in instances:
                raise UsageError(f"--problem/--instance repeat the pair "
                                 f"{inst.id.text} instance {seed}")
            instances.append(inst)
    if args.out and args.out_dir:
        raise UsageError("need at most one of --out / --out-dir")
    if len(instances) > 1 and not args.out_dir:
        raise UsageError("multiple problem/instance combinations need --out-dir")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    groups = _design_groups(instances)
    docs_of = partial(_feature_docs, n=args.n, sample_seed=args.sample_seed,
                      feature_seed=args.feature_seed)
    parallel = args.jobs > 1 and len(groups) > 1
    with (Pool(min(args.jobs, len(groups)), initializer=_one_blas_thread)
          if parallel else nullcontext()) as pool:
        for docs in (pool.imap if parallel else map)(docs_of, groups):
            for doc in docs:
                text = _json_doc("features", [], doc)
                if args.out_dir:
                    name = f"{doc['problem']}-i{doc['instance']}.json"
                    _atomic_write(os.path.join(args.out_dir, name), text)
                else:
                    _emit(text, args.out)
    return 0


def _corpus(args) -> tuple[list[LabelledRow], list[tuple[str, object]]]:
    """The labelled rows that train and cv fit, and the corpus set-up as
    metadata pairs.  A row is a feature file of --features-dir whose problem
    is a labelled baseline at a corpus instance seed, labelled for
    --property and grouped by function; other files are skipped.  The
    corpus files must share one set-up (d, n, sample and feature seed)."""
    if args.property not in PROPERTY_NAMES:
        raise UsageError(f"--property must be one of {', '.join(PROPERTY_NAMES)}")
    labels = load_labels()
    rows, setups = [], set()
    for _, fv, (_, problem, instance), doc in _feature_dir(args.features_dir):
        if problem not in labels or instance not in CORPUS_INSTANCE_SEEDS:
            continue
        setups.add((("dim", doc["d"]), ("n", doc["n"]),
                    ("sample_seed", doc["sample_seed"]),
                    ("feature_seed", doc["feature_seed"])))
        rows.append(LabelledRow(fv, labels[problem][args.property], problem))
    if len(setups) != 1:
        raise LandscapeError(
            f"{args.features_dir} needs labelled baseline feature files at "
            f"instance seeds {CORPUS_INSTANCE_SEEDS} of one set-up; found "
            f"{[dict(setup) for setup in sorted(setups)]}")
    return rows, list(setups.pop())


def _cmd_train(args) -> int:
    rows, meta = _corpus(args)
    model = train(rows, args.property, args.train_seed, n_trees=args.trees)
    # to_json sorts the keys
    metadata = dict(meta, tool=_TOOL, env_seed=_env_record())
    _atomic_write(args.out, model.to_json(metadata) + "\n")
    sys.stdout.write(
        f"trained {args.property}: training accuracy "
        f"{_fmt(model.training_accuracy)}\n")
    return 0


def _load_feature_doc(path: str
                      ) -> tuple[FeatureVector, tuple[str, str, int], dict]:
    """A features file's vector, (suite, problem, instance) and document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    command = doc.get("command") if isinstance(doc, dict) else None
    if command != "features":
        raise LandscapeError(
            f"{path} is not a features file (its command is {command!r})")
    values = {name: float(doc["features"][name]) for name in FEATURE_NAMES}
    fv = FeatureVector(values=values, degenerate=tuple(doc.get("degenerate", ())))
    problem = str(doc["problem"])
    ident = (ProblemId.parse(problem).suite, problem, int(doc["instance"]))
    return fv, ident, doc


def _feature_dir(directory: str) -> list[tuple]:
    """(path, vector, (suite, problem, instance), document) of each .json
    file of directory, but for the .meta.json sidecars that embed writes
    beside its map.  No two files may hold one (problem, instance) pair."""
    names = sorted(n for n in os.listdir(directory)
                   if n.endswith(".json") and not n.endswith(".meta.json"))
    if not names:
        raise LandscapeError(f"no .json feature files in {directory}")
    loaded, path_of = [], {}
    for path in (os.path.join(directory, n) for n in names):
        fv, (suite, problem, instance), doc = _load_feature_doc(path)
        first = path_of.setdefault((problem, instance), path)
        if first != path:
            raise LandscapeError(
                f"{first} and {path} both hold {problem} instance {instance}")
        loaded.append((path, fv, (suite, problem, instance), doc))
    return loaded


def _cmd_classify(args) -> int:
    if bool(args.features) == bool(args.features_dir):
        raise UsageError("need exactly one of --features / --features-dir")
    with open(args.model, encoding="utf-8") as fh:
        text = fh.read()
    model = PropertyModel.from_json(text)
    # the set-up the model was trained at; models without metadata skip this
    trained = json.loads(text).get("metadata", {})
    loaded = [(args.features, *_load_feature_doc(args.features))] \
        if args.features else _feature_dir(args.features_dir)
    X, rows = [], []
    for path, fv, (_, problem, instance), _ in loaded:
        for key, feature in (("dim", "basic.dim"), ("n", "basic.n_obs")):
            if key in trained and fv.values[feature] != trained[key]:
                raise ManifestMismatch(
                    f"{path}: {feature} = {_fmt(fv.values[feature])}, but "
                    f"the model was trained at {key} = {trained[key]}")
        X.append(_feature_array(model, fv))  # checks the manifest
        rows.append([problem, instance, model.property_name])
    # one vote over every file; a row's share is its label's, the largest
    labels, shares = _vote(model.trees, np.stack(X), model.vocabulary)
    for row, label, share in zip(rows, labels, shares):
        row += [label, float(share.max())]
    meta = [("model", os.path.basename(args.model)),
            ("property", model.property_name),
            ("train_seed", model.train_seed)]
    header = ["problem", "instance", "property", "label", "vote_share"]
    _emit(_csv("classify", meta, header, rows), args.out)
    return 0


def _cmd_cv(args) -> int:
    rows, meta = _corpus(args)
    cv = lofo_cv(rows, args.property, args.train_seed, n_trees=args.trees)
    meta += [("trees", args.trees), ("property", args.property),
             ("train_seed", args.train_seed),
             ("mean_accuracy", cv.mean_accuracy)]
    if args.format == "json":
        payload = {
            "property": args.property,
            "mean_accuracy": cv.mean_accuracy,
            "folds": [{"group": f.group, "n_test": f.n_test,
                       "accuracy": f.accuracy} for f in cv.folds],
        }
        text = _json_doc("cv", meta, payload)
    else:
        data = [[f.group, f.n_test, f.accuracy] for f in cv.folds]
        text = _csv("cv", meta, ["group", "n_test", "accuracy"], data)
    _emit(text, args.out)
    return 0


def _cmd_embed(args) -> int:
    if not (math.isfinite(args.perplexity) and args.perplexity >= 1):
        raise UsageError(
            f"--perplexity must be a real >= 1, got {args.perplexity}")
    loaded = _feature_dir(args.features_dir)
    fvs = [fv for _, fv, _, _ in loaded]
    ids = [ident for _, _, ident, _ in loaded]
    matrix, kept = normalize_features(fvs)
    emb = tsne_embed(matrix, ids=ids, perplexity=args.perplexity,
                     embed_seed=args.embed_seed, iterations=args.iterations,
                     trace=True)
    meta = [("perplexity", args.perplexity), ("embed_seed", args.embed_seed),
            ("iterations", args.iterations), ("rows", len(emb.rows)),
            ("final_kl", emb.final_kl)]
    rows = [[r.suite, r.problem, r.instance, r.u, r.v] for r in emb.rows]
    text = _csv("embed", meta, ["suite", "problem", "instance", "u", "v"], rows)
    sidecar = _json_doc("embed", meta, {
        "kept_features": kept,
        "kl_trace": [[it, kl] for it, kl in kl_trace(emb)],
    })
    _atomic_write(args.out, text)
    _atomic_write(args.out + ".meta.json", sidecar)
    return 0


# --------------------------------------------------------------------------
# parser

def _add_common(p, *, point=False, n=False):
    p.add_argument("--problem", required=True,
                   help="problem id, e.g. m7, sphere, shekel-20")
    p.add_argument("--instance", type=int, default=None,
                   help="instance seed (default 1)")
    p.add_argument("--dim", type=int, required=True, help="dimension d")
    if point:
        p.add_argument("--point", type=_point_type, required=True,
                       help="comma-separated coordinates")
    if n:
        p.add_argument("--n", type=int, default=None,
                       help="sample size (default 50*d)")
        p.add_argument("--sample-seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_corpus_flags(p):
    p.add_argument("--property", required=True)
    p.add_argument("--features-dir", required=True,
                   help="directory of feature JSON files; the labelled "
                        "baselines at instances 1-5 are the corpus")
    p.add_argument("--train-seed", type=int, default=None)
    p.add_argument("--trees", type=int, default=DEFAULT_TREES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="landscape-atlas",
        description="Fitness-landscape analysis of level-generation and "
                    "baseline optimization problems.")
    ap.add_argument("--version", action="version", version=_TOOL)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="problem registry")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("eval", help="evaluate one point")
    _add_common(p, point=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("level", help="decode and render a level grid")
    _add_common(p, point=True)
    p.set_defaults(fn=_cmd_level)

    p = sub.add_parser("simulate", help="run an agent on a decoded level")
    _add_common(p, point=True)
    p.add_argument("--agent", choices=AGENT_KINDS, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("walk", help="bundle of diagonal walks")
    _add_common(p)
    p.add_argument("--anchor-seed", type=int, default=None)
    p.add_argument("--directions", type=int, default=1)
    p.add_argument("--step", type=float, default=None,
                   help="step length (default 2%% of box diagonal / sqrt(d))")
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("sample", help="latin hypercube sample")
    _add_common(p, n=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("features", help="landscape feature vectors")
    p.add_argument("--problem", type=_problem_list_type, required=True,
                   help="id or comma list; 'mario' stands for m1..m28 and "
                        "'baselines' for the 16 baselines")
    p.add_argument("--instance", type=_int_list_type, default=None,
                   help="seed, comma list, or range like 1-7")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="default 50*d")
    p.add_argument("--sample-seed", type=int, default=None)
    p.add_argument("--feature-seed", type=int, default=None)
    p.add_argument("--out", default=None, help="single-row output file")
    p.add_argument("--out-dir", default=None,
                   help="directory for one JSON per problem/instance")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; the problems that share a "
                        "decoder run in one worker")
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("train", help="fit a property classifier")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("classify", help="predict properties for feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="one feature JSON file")
    p.add_argument("--features-dir", default=None,
                   help="directory of feature JSON files")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cv", help="leave-one-function-out cross-validation")
    _add_corpus_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cv)

    p = sub.add_parser("embed", help="2-D t-SNE similarity map")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--perplexity", type=float, default=DEFAULT_PERPLEXITY)
    p.add_argument("--embed-seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.set_defaults(fn=_cmd_embed)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "n") and args.n is None and hasattr(args, "dim"):
        args.n = 50 * args.dim
    try:
        for flag in _COUNT_FLAGS:
            if getattr(args, flag, 1) < 1:
                raise UsageError(f"--{flag} must be at least 1, "
                                 f"got {getattr(args, flag)}")
        _resolve_seeds(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (LandscapeError, ValueError, KeyError, OSError) as exc:
        print(f"{ap.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
