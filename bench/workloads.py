"""The four benchmark workloads and their correctness gates.

Each workload turns an item index into an input (outside the timed
region), runs one item (timed), and checks the output (outside the timed
region).  ``check`` returns a list of problems; an empty list means the
item is correct.  Gates never raise: a wrong result is a counted failure.

Library functions are looked up on the ``sunmesh`` package at call time,
so the wrappers installed by :mod:`tracing` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import sunmesh as sm
from tracing import read_jsonl

# Item seeds are seed * SEED_STRIDE + index; measured items count up from 0
# and warm-up items from WARMUP_BASE, and neither reaches SEED_STRIDE, so
# different runs never share an input.
SEED_STRIDE = 10_000_000
WARMUP_BASE = 2_400_000

MESH_N = 64
MESH_TOL = 1e-9
HAAR_N = 16
HAAR_COUNT = 4096
HAAR_SLAB = 1024
HAAR_TOL = 1e-10
LIFT_BIG_N = 7
LIFT_SMALL_N = 4
LIFT_P = 4
LIFT_TOL = 1e-9
CLI_TIMEOUT_S = 120
CLI_LIFT_DIM = 21
CLI_RENDER_N = 12


def item_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def _unitarity_error(u: np.ndarray) -> np.ndarray:
    """Frobenius norm of U^H U - I, per matrix of a (..., n, n) stack."""
    n = u.shape[-1]
    gram = np.matmul(np.swapaxes(u.conj(), -1, -2), u)
    return np.linalg.norm(gram - np.eye(n), axis=(-2, -1))


class Workload:
    """One closed-loop client: ``make_input`` -> ``run`` -> ``check``."""

    name = ""
    # Items per round: the unit of work whose layer calls repeat exactly.
    round_size = 1
    # Set by the runner during a traced phase.
    tracer = None

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.notes: dict[str, int] = {}

    def prepare(self) -> None:
        """Per-run input set-up outside items (repeated as part of set-up)."""

    def warm_up(self, rep: int) -> None:
        index = WARMUP_BASE + rep * self.round_size
        for i in range(index, index + self.round_size):
            self.run(self.make_input(i))

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def absorb_trace(self, out, item: int) -> None:
        """Merge spans recorded outside this process into ``self.tracer``."""

    @staticmethod
    def peak_rss_kib() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class MeshRoundtrip(Workload):
    name = "mesh_roundtrip"

    def make_input(self, index):
        return sm.random_unitary_qr(MESH_N, seed=item_seed(self.seed, index))

    def run(self, u):
        triangle = sm.triangle_decompose(u)
        canonical, info = sm.canonicalize(triangle, u, return_info=True)
        return {
            "canonical_info": info,
            "canonical": sm.reconstruct(canonical),
            "clements": sm.reconstruct(sm.clements_decompose(u)),
            "reck": sm.reconstruct(sm.reck_decompose(u)),
        }

    def check(self, u, out):
        residuals = {"canonicalize": out["canonical_info"]["residual"]}
        for scheme in ("canonical", "clements", "reck"):
            residuals[scheme] = float(np.linalg.norm(out[scheme] - u))
        return [
            f"{scheme} residual {r:.3e} > {MESH_TOL:g}"
            for scheme, r in residuals.items()
            if not r <= MESH_TOL
        ]


class HaarSampling(Workload):
    name = "haar_sampling"

    def make_input(self, index):
        return item_seed(self.seed, index)

    def run(self, seed):
        return sm.sample_unitaries(HAAR_N, HAAR_COUNT, seed=seed)

    def check(self, seed, u):
        problems = []
        if u.shape != (HAAR_COUNT, HAAR_N, HAAR_N):
            return [f"shape {u.shape}"]
        worst = float(np.max(_unitarity_error(u)))
        if not worst <= HAAR_TOL:
            problems.append(f"draw not unitary: error {worst:.3e} > {HAAR_TOL:g}")
        again = sm.sample_unitaries(HAAR_N, HAAR_SLAB, seed=seed)
        if not np.array_equal(again, u[:HAAR_SLAB]):
            problems.append("first slab differs when drawn again at the same seed")
        return problems


class PhotonLift(Workload):
    name = "photon_lift"

    def make_input(self, index):
        k = item_seed(self.seed, index)
        return (
            sm.sample_haar(sm.HaarSpec(LIFT_BIG_N, seed=k)),
            sm.sample_haar(sm.HaarSpec(LIFT_SMALL_N, seed=k)),
        )

    def run(self, plans):
        big, small = plans
        return {
            "big": sm.lift_plan(sm.FockBasis(LIFT_BIG_N, LIFT_P), big),
            "generators": sm.lift_plan(sm.FockBasis(LIFT_SMALL_N, LIFT_P), small),
            "permanents": sm.lift_via_permanents(sm.reconstruct(small), LIFT_P),
        }

    def check(self, plans, out):
        problems = []
        want = {"big": 210, "generators": 35, "permanents": 35}
        for key, dim in want.items():
            if out[key].shape != (dim, dim):
                problems.append(f"{key} lift has shape {out[key].shape}, want {dim}x{dim}")
        if problems:
            return problems
        err = float(_unitarity_error(out["big"]))
        if not err <= LIFT_TOL:
            problems.append(f"n={LIFT_BIG_N} lift not unitary: error {err:.3e}")
        gap = float(np.max(np.abs(out["generators"] - out["permanents"])))
        if not gap <= LIFT_TOL:
            problems.append(f"lift routes disagree by {gap:.3e}")
        return problems


_RENDER_MODE_LINE = re.compile(r"^\s*\d+ -")


class CliPipeline(Workload):
    """Shell pipelines of ``python -m sunmesh.cli``, one at a time.

    Items cycle through three pipelines.  Each (pipeline, seed) runs in two
    consecutive cycles, and the second run's stdout must equal the first's
    byte for byte.
    """

    name = "cli_pipeline"
    round_size = 3

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.work = out_dir / "cli_pipeline"
        self.first_stdout: dict[tuple[int, int], bytes] = {}
        self.notes = {"statistical_rejects": 0}
        self.env = dict(os.environ, PYTHONPATH="src")

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)

    def warm_up(self, rep):
        # Nothing beyond the fresh-interpreter import timed in every set-up
        # repetition, which compiles and caches the byte code of a fresh
        # checkout; a full cycle of pipelines would triple the set-up time.
        pass

    def make_input(self, index):
        kind = index % 3
        k = item_seed(self.seed, index // 6)
        if kind == 0:
            path = self.work / f"m6-{k}.json"
            path.write_text(json.dumps(sm.matrix_to_json(sm.random_unitary_qr(6, seed=k))))
            stages = [["decompose", str(path), "--canonical"], ["lift", "-", "--p", "2"]]
        elif kind == 1:
            stages = [["sample-haar", "--n", str(CLI_RENDER_N), "--seed", str(k)], ["render", "-"]]
        else:
            stages = [["validate-haar", "--n", "5", "--samples", "20000", "--seed", str(k)]]
        return {"index": index, "kind": kind, "seed": k, "stages": stages}

    def _argv(self, stage: int, args: list[str]) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "sunmesh.cli", *args]
        spans = self.work / f"stage{stage}.spans.jsonl.gz"
        return [sys.executable, str(self.root / "bench" / "traced_cli.py"), str(spans), *args]

    def run(self, inp):
        procs = []
        errs = []
        try:
            stdin = subprocess.DEVNULL
            for stage, args in enumerate(inp["stages"]):
                err = open(self.work / f"stage{stage}.err", "w+b")
                errs.append(err)
                proc = subprocess.Popen(
                    self._argv(stage, args), stdin=stdin, stdout=subprocess.PIPE,
                    stderr=err, cwd=self.root, env=self.env,
                )
                if procs:
                    procs[-1].stdout.close()
                procs.append(proc)
                stdin = proc.stdout
            stdout, _ = procs[-1].communicate(timeout=CLI_TIMEOUT_S)
            codes = [p.wait(timeout=CLI_TIMEOUT_S) for p in procs]
            stderr = []
            for err in errs:
                err.seek(0)
                stderr.append(err.read().decode(errors="replace"))
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
            for err in errs:
                err.close()
        return {"codes": codes, "stdout": stdout, "stderr": stderr}

    def absorb_trace(self, out, item):
        for stage in range(len(out["codes"])):
            path = self.work / f"stage{stage}.spans.jsonl.gz"
            spans, methods = read_jsonl(path)
            path.unlink()
            self.tracer.extend(spans, methods, item)

    def check(self, inp, out):
        problems = []
        kind = inp["kind"]
        codes = out["codes"]
        allowed = (0, 3) if kind == 2 else (0,)
        for stage, code in enumerate(codes):
            if code not in allowed:
                tail = out["stderr"][stage].strip().splitlines()[-1:] or [""]
                problems.append(f"stage {stage} exit {code}: {tail[0]}")
        if problems:
            return problems
        text = out["stdout"].decode("utf-8", errors="replace")
        try:
            if kind == 0:
                doc = json.loads(text)
                dim = doc["provenance"]["dimension"]
                shape = np.asarray(doc["entries"], dtype=float).shape
                if dim != CLI_LIFT_DIM or shape != (CLI_LIFT_DIM, CLI_LIFT_DIM, 2):
                    problems.append(f"lift dimension {dim}, entries {shape}, want {CLI_LIFT_DIM}")
            elif kind == 1:
                modes = sum(bool(_RENDER_MODE_LINE.match(line)) for line in text.splitlines())
                if modes != CLI_RENDER_N:
                    problems.append(f"render drew {modes} modes, want {CLI_RENDER_N}")
            else:
                doc = json.loads(text)
                if doc["n"] != 5 or doc["passed"] != (codes[0] == 0):
                    problems.append("validate-haar report does not match its exit code")
                elif codes[0] == 3:
                    self.notes["statistical_rejects"] += 1
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"output does not parse: {exc!r}")
        key = (kind, inp["seed"])
        first = self.first_stdout.pop(key, None)
        if first is None:
            self.first_stdout[key] = out["stdout"]
        elif first != out["stdout"]:
            problems.append("stdout differs from the first run of the same pipeline and seed")
        return problems

    @staticmethod
    def peak_rss_kib() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (MeshRoundtrip, HaarSampling, PhotonLift, CliPipeline)}


def fresh_import_s(root: Path) -> float:
    """Seconds for ``import sunmesh.cli``, which imports NumPy, SciPy and
    every sunmesh module, timed inside a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import sunmesh.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=dict(os.environ, PYTHONPATH="src"),
        check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return float(done.stdout)


def cli_main_ms(out_dir: Path, seed: int, reps: int = 3) -> dict[str, float]:
    """Median in-process milliseconds of ``cli.main(argv)`` per subcommand."""
    import sunmesh.cli

    work = out_dir / "cli_main"
    work.mkdir(parents=True, exist_ok=True)
    m6 = work / "m6.json"
    m6.write_text(json.dumps(sm.matrix_to_json(sm.random_unitary_qr(6, seed=seed))))
    plan6, haar12 = work / "plan6.json", work / "haar12.json"

    def out(name):
        return ["--output", str(work / name)]

    commands = {
        "decompose": ["decompose", str(m6), "--canonical", *out("plan6.json")],
        "reconstruct": ["reconstruct", str(plan6), *out("reconstruct.json")],
        "compare": ["compare", str(m6), *out("compare.json")],
        "sample-haar": ["sample-haar", "--n", str(CLI_RENDER_N), "--seed", str(seed), *out("haar12.json")],
        "validate-haar": ["validate-haar", "--n", "5", "--samples", "20000", "--seed", str(seed), *out("validate.json")],
        "lift": ["lift", str(plan6), "--p", "2", *out("lift.json")],
        "render": ["render", str(haar12), *out("render.txt")],
    }
    times = {name: [] for name in commands}
    for _ in range(reps):
        for name, argv in commands.items():
            with contextlib.redirect_stderr(io.StringIO()):
                t = perf_counter()
                code = sunmesh.cli.main(argv)
                times[name].append(1e3 * (perf_counter() - t))
            if code not in (0, 3):
                raise RuntimeError(f"cli.main {name} exited {code}")
    return {name: statistics.median(ts) for name, ts in times.items()}
