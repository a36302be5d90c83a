"""The three seeded closed-loop workloads of the gmesim benchmark.

A workload is a fixed cycle of op types that repeats, each repetition with
fresh inputs.  Every input of op ``i`` is drawn from a generator seeded with
``(seed, i)``, so the same seed gives the same inputs and no input repeats
across ops.  One op is one user-level request: an in-process
``gmesim.cli.main(argv)`` call with stdout captured, or one library call.

Ops call into gmesim through module attributes (``cli.main``,
``protocols.merge_chain_to_ghz``) so that the tracer's wrappers see them.
Output checks use NumPy and the report schema only, never gmesim itself, so
they are independent of the code under test and leave no spans.

Why each workload exists, its sizes and what it leaves out are written up in
``DESIGN.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gmesim import cli, protocols
from gmesim.qcore import PureState, basis_ket, ket

#: The repository's structural tolerance (``gmesim.qcore.ATOL``), written out
#: so that a change to the library cannot loosen the benchmark's checks.
ATOL = 1e-9

#: Width of the statistical checks on sampled rates, in standard deviations.
SIGMAS = 5.0

#: Extra allowance, in counts, for the small-count tail of a sampled rate.
#: Near a rate of 0 or 1 the normal approximation behind a 5-sigma band
#: fails (a Poisson count with mean 0.01 exceeds it at a single event), so
#: the band is widened by this many events out of ``shots``.
COUNT_SLACK = 5.0

DEFAULT_SHOTS = 100_000


@dataclass
class Op:
    """One request: its type, its generated inputs and the files it owns."""

    index: int
    kind: str
    argv: list[str] | None = None
    call: tuple | None = None
    files: list[Path] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def interleave(mix) -> list[str]:
    """Spread a fixed op mix ``[(kind, count), ...]`` evenly over one cycle.

    Smooth weighted round-robin: deterministic, ties go to the kind listed
    first, so the first slot of every cycle is the first listed kind.
    """
    total = sum(c for _, c in mix)
    credit = [0] * len(mix)
    order = []
    for _ in range(total):
        for i, (_, count) in enumerate(mix):
            credit[i] += count
        best = max(range(len(mix)), key=lambda i: (credit[i], -i))
        credit[best] -= total
        order.append(mix[best][0])
    return order


def _num(x: float) -> str:
    return repr(float(x))


def _csv(values) -> str:
    return ",".join(_num(v) for v in values)


def _schmidt_rank_ok(amps: np.ndarray, n: int) -> bool:
    """Schmidt rank >= 2 across every bipartition of ``n`` qubits."""
    t = amps.reshape((2,) * n)
    for size in range(1, n // 2 + 1):
        for left in itertools.combinations(range(n), size):
            if 2 * size == n and 0 not in left:
                continue
            right = [i for i in range(n) if i not in left]
            mat = t.transpose(list(left) + right).reshape(2**size, -1)
            svals = np.linalg.svd(mat, compute_uv=False)
            if int(np.sum(svals > ATOL)) < 2:
                return False
    return True


def _ghz_class_problems(amps: np.ndarray, n: int, what: str) -> list[str]:
    """Support on |0...0> and |1...1> only, and GME by Schmidt rank."""
    amps = np.asarray(amps)
    if amps.shape != (2**n,):
        return [f"{what}: {amps.shape} amplitudes, expected {2**n}"]
    problems = []
    off = np.abs(amps[1:-1])
    if off.size and float(off.max()) > ATOL:
        problems.append(f"{what}: weight {float(off.max())!r} outside |0..0>,|1..1>")
    if abs(np.linalg.norm(amps) - 1.0) > ATOL:
        problems.append(f"{what}: norm {np.linalg.norm(amps)!r}")
    if not _schmidt_rank_ok(amps, n):
        problems.append(f"{what}: not GME (some cut has Schmidt rank 1)")
    return problems


def _rate_ok(empirical: float, exact: float, shots: int) -> bool:
    sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / shots)
    return abs(empirical - exact) <= SIGMAS * sigma + COUNT_SLACK / shots


class Workload:
    """Base: op generation per index, op execution, output checks."""

    name = ""
    mix: tuple = ()
    #: Whole cycles run by a traced pass; fixed so that counts can repeat.
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.cycle = interleave(self.mix)
        self._schema = None

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def cycle_ops(self, cycle: int) -> list[Op]:
        n = len(self.cycle)
        return [self.make_op(cycle * n + k, kind) for k, kind in enumerate(self.cycle)]

    def rank(self, index: int, kind: str) -> int:
        """Position of op ``index`` among the ops of its kind, over all cycles."""
        n = len(self.cycle)
        before = self.cycle[: index % n].count(kind)
        return (index // n) * self.cycle.count(kind) + before

    def make_op(self, index: int, kind: str) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed part of an op."""
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
            return code, out.getvalue(), err.getvalue()
        fn, args = op.call
        return fn(*args)

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def digest(self, op: Op, result) -> str:
        """Fingerprint of an op's output: the stdout bytes of a CLI op."""
        return hashlib.sha256(result[1].encode("utf-8")).hexdigest()

    def release(self, op: Op) -> None:
        for path in op.files:
            path.unlink(missing_ok=True)

    # -- shared CLI checks ---------------------------------------------------

    def _cli_artifact(self, op: Op, result) -> tuple[dict | None, list[str]]:
        code, out, err = result
        if code != 0:
            return None, [f"exit code {code}: {err.strip()[:200]}"]
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return None, [f"artifact is not JSON: {exc}"]
        problems = [e.message for e in self._validator().iter_errors(doc)]
        if not problems and doc["manifest"]["subcommand"] != op.argv[0]:
            problems.append(f"manifest names {doc['manifest']['subcommand']!r}")
        return doc, problems

    def _validator(self):
        if self._schema is None:
            import jsonschema

            schema_file = Path(cli.__file__).parent / "schemas" / "report-v1.json"
            with open(schema_file, encoding="utf-8") as fh:
                schema = json.load(fh)
            self._schema = jsonschema.Draft202012Validator(schema)
        return self._schema


# ---------------------------------------------------------------------------
# activation: the density-operator path users run most
# ---------------------------------------------------------------------------


class Activation(Workload):
    name = "activation"
    # Latency order is prop2 < sigma-scan << prop3, so the type boundaries sit
    # at 35% and 75%: p50 lies 15 points inside sigma-scan, p90 15 points
    # inside prop3.
    mix = (("sigma-scan", 8), ("prop2", 7), ("prop3", 5))

    def make_op(self, index, kind):
        rng = self.rng(index)
        seed = str(int(rng.integers(0, 2**31 - 1)))
        if kind == "sigma-scan":
            rates = rng.uniform(0.1, 0.9, 4)
            argv = ["sigma-scan", "--p-list", _csv(rates), "--seed", seed, "--format", "json"]
            return Op(index, kind, argv=argv, expect={"rates": [float(r) for r in rates]})
        # closed-form success laws, for a check independent of the library
        if kind == "prop3":
            weights, coeffs = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 4)
            argv = ["prop3", "--weights", _csv(weights), "--schmidt", _csv(coeffs),
                    "--seed", seed]
            block = (coeffs[2] ** 2 + coeffs[3] ** 2) / np.sum(coeffs**2)
            success = np.prod(weights / weights.sum()) * block**3
        else:
            p, coeffs = rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5, 3)
            argv = ["prop2", "--p", _num(p), "--schmidt", _csv(coeffs), "--seed", seed]
            block = (coeffs[1] ** 2 + coeffs[2] ** 2) / np.sum(coeffs**2)
            success = (1.0 - p) * p * block**2
        return Op(index, kind, argv=argv, expect={"success": float(success)})

    def check(self, op, result):
        doc, problems = self._cli_artifact(op, result)
        if doc is None or problems:
            return problems
        payload = doc["payload"]
        if op.kind == "sigma-scan":
            rows = payload["rows"]
            expected = [(p, n) for p in op.expect["rates"] for n in range(21)]
            if [(r["p"], r["n"]) for r in rows] != expected:
                return problems + ["scan rows do not match the requested rates and n = 0..20"]
            for r in rows:
                law = 1.0 - (1.0 - r["p"]) ** r["n"]
                if abs(r["analytic"] - law) > ATOL:
                    problems.append(f"scan row p={r['p']} n={r['n']}: analytic {r['analytic']}")
                if not _rate_ok(r["empirical"], law, DEFAULT_SHOTS):
                    problems.append(f"scan row p={r['p']} n={r['n']}: empirical "
                                    f"{r['empirical']} vs {law}")
            return problems
        run, mc = payload["run"], payload["monte_carlo"]
        if not run["success"] or not run["certificates"]["is_gme"]:
            problems.append("accepted branch is not certified GME")
        if abs(run["analytic_success_prob"] - op.expect["success"]) > ATOL:
            problems.append(f"analytic {run['analytic_success_prob']} != closed form "
                            f"{op.expect['success']}")
        if abs(mc["exact_success_prob"] - run["analytic_success_prob"]) > ATOL:
            problems.append(f"exact {mc['exact_success_prob']} != analytic "
                            f"{run['analytic_success_prob']}")
        if not _rate_ok(mc["success_rate"], mc["exact_success_prob"], mc["shots"]):
            problems.append(f"Monte Carlo rate {mc['success_rate']} vs exact "
                            f"{mc['exact_success_prob']}")
        return problems


# ---------------------------------------------------------------------------
# merge: the pure-state path with the widest state vectors
# ---------------------------------------------------------------------------


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_pair(rng: np.random.Generator) -> PureState:
    """a|00> + b|11> with b/a in [0.3, 0.9], under random local unitaries."""
    schmidt = np.array([1.0, 0.0, 0.0, rng.uniform(0.3, 0.9)], dtype=complex)
    schmidt /= np.linalg.norm(schmidt)
    local = np.kron(_random_unitary(rng), _random_unitary(rng))
    return PureState((2, 2), local @ schmidt)


class Merge(Workload):
    name = "merge"
    # Latency order is merge2 < sigma < merge3 << merge4; boundaries at 32%,
    # 36% and 68% keep p50 inside merge3 and p90 inside merge4.
    mix = (("merge4", 16), ("merge3", 16), ("merge2", 16), ("sigma", 2))

    def make_op(self, index, kind):
        rng = self.rng(index)
        if kind.startswith("merge"):
            m = int(kind[-1])
            pairs = [_rotated_pair(rng) for _ in range(m)]
            return Op(index, kind, call=(protocols.merge_chain_to_ghz, (pairs,)),
                      expect={"m": m})
        # alternate the teleport route (maximal pairs) and the merge route
        maximal = self.rank(index, kind) % 2 == 0
        coeffs = None if maximal else protocols.normalize_schmidt(
            [1.0, rng.uniform(0.3, 0.9)])
        config = protocols.ProtocolConfig(
            p=rng.uniform(0.3, 0.7), schmidt_coeffs=coeffs,
            seed=int(rng.integers(0, 2**31 - 1)))
        return Op(index, "sigma", call=(protocols.run_sigma_adaptive, (config,)),
                  expect={"maximal": maximal})

    def check(self, op, result):
        if op.kind == "sigma":
            if not result.success:
                if result.copies_consumed != result.config.max_copies:
                    return ["unsuccessful run stopped before its copy budget"]
                return []
            amps = result.final_state.amplitudes
            problems = _ghz_class_problems(amps, 3, "sigma final state")
            if op.expect["maximal"] and abs(abs(amps[0]) ** 2 - 0.5) > ATOL:
                problems.append("teleport route did not deliver the uniform GHZ state")
            return problems
        m = op.expect["m"]
        probs = [b.probability for b in result.branches]
        problems = []
        if len(probs) != 4 ** (m - 1):
            problems.append(f"{len(probs)} branches, expected {4 ** (m - 1)}")
        if abs(sum(probs) - 1.0) > ATOL:
            problems.append(f"branch probabilities sum to {sum(probs)!r}")
        for k, branch in enumerate(result.branches):
            problems += _ghz_class_problems(branch.state.amplitudes, m + 1, f"branch {k}")
        return problems

    def digest(self, op, result):
        """Probabilities and amplitudes, byte for byte."""
        h = hashlib.sha256()
        if op.kind != "sigma":
            for b in result.branches:
                h.update(np.float64(b.probability).tobytes())
                h.update(b.state.amplitudes.tobytes())
        else:
            for s in result.steps:
                h.update(repr((s.outcome_index, s.probability)).encode())
            if result.final_state is not None:
                h.update(result.final_state.amplitudes.tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# certify_distill: large state files in, many small density operators
# ---------------------------------------------------------------------------


def _write_state_file(path: Path, state) -> None:
    """State-file format of ``gmesim.cli``, written without gmesim."""
    flat = state.matrix.reshape(-1)
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    doc = {"dims": list(state.dims.dims), "kind": "density", "matrix": pairs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class CertifyDistill(Workload):
    name = "certify_distill"
    # Latency order is certify-small < prop1 (rising with rounds 1..6) <<
    # certify-prop3; boundaries at 15% and 75% keep p50 among prop1 rounds 4
    # and p90 inside certify-prop3.
    mix = (("prop1", 12), ("certify-prop3", 5), ("certify-small", 3))
    trace_cycles = 2

    _SMALL = ("prop2", "sigma", "prop1")

    def make_op(self, index, kind):
        rng = self.rng(index)
        seed = str(int(rng.integers(0, 2**31 - 1)))
        rank = self.rank(index, kind)
        if kind == "prop1":
            rounds = rank % 6 + 1
            argv = ["prop1", "--rounds", str(rounds),
                    "--pair-ab", _csv(rng.uniform(1.0, 2.0, 2)),
                    "--pair-bc", _csv(rng.uniform(1.0, 2.0, 2)),
                    "--p", _num(rng.uniform(0.6, 0.85)), "--seed", seed]
            return Op(index, kind, argv=argv, expect={"rounds": rounds})
        if kind == "certify-prop3":
            family = "prop3"
            weights = rng.uniform(0.5, 1.5, 3)
            state = protocols.build_prop3_state(
                protocols.normalize_schmidt(rng.uniform(0.5, 1.5, 4)),
                tuple(weights / weights.sum()))
        else:
            family = self._SMALL[rank % len(self._SMALL)]
            p = rng.uniform(0.2, 0.8)
            if family == "prop2":
                state = protocols.build_prop2_state(
                    protocols.normalize_schmidt(rng.uniform(0.5, 1.5, 3)), p)
            elif family == "sigma":
                pair = ket([1.0, 0.0, 0.0, rng.uniform(0.3, 0.9)], (2, 2))
                state = protocols.build_sigma_prime(pair, p)
            else:
                ab, bc = rng.uniform(1.0, 2.0, 2), rng.uniform(1.0, 2.0, 2)
                state = protocols.build_prop1_general(
                    ket([ab[0], 0.0, 0.0, ab[1]], (2, 2)), basis_ket((2,), (0,)),
                    basis_ket((2,), (1,)), ket([bc[0], 0.0, 0.0, bc[1]], (2, 2)), p)
        path = self.workdir / f"op{index}-{family}.json"
        _write_state_file(path, state)
        argv = ["certify", "--state-file", str(path), "--seed", seed]
        return Op(index, kind, argv=argv, files=[path], expect={"family": family})

    def check(self, op, result):
        doc, problems = self._cli_artifact(op, result)
        if doc is None or problems:
            return problems
        payload = doc["payload"]
        if op.kind != "prop1":
            if payload["all_cuts_entangled"] is not True:
                problems.append(f"{op.expect['family']} state not entangled in every cut")
            return problems
        dist = payload["distillation"]
        if dist.get("status") != "ok":
            return problems + [f"distillation status {dist.get('status')!r}"]
        fids = [f for f, _ in dist["trajectory"]]
        if len(fids) != op.expect["rounds"] + 1:
            problems.append(f"{len(fids)} trajectory points for {op.expect['rounds']} rounds")
        if any(b < a - ATOL for a, b in zip(fids, fids[1:])):
            problems.append(f"fidelity decreased along {fids}")
        return problems


WORKLOADS = {w.name: w for w in (Activation, Merge, CertifyDistill)}
