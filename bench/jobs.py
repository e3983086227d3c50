"""The three benchmark workloads: seeded inputs, the job list, and the
correctness checks that run outside the timed region.

A workload seed only changes nonzero coefficients inside fixed monomial
shapes and the CLI spot-check seed, so every seed does the same amount of
work.  Seed 0 reproduces the literal polynomials written below (all
coefficients 1); `golden.json` holds what each job printed at seed 0.

Every check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass, field

WORKLOADS = ("grid_verify", "field_enum", "exact_identities")
DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


# -- seeded polynomials ---------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """A polynomial as signed monomials ("x1^2*x2", 1) whose coefficients the
    seed picks; seed 0 keeps every coefficient at 1."""

    terms: tuple
    coeff_max: int

    @classmethod
    def parse(cls, text: str, coeff_max: int) -> "Poly":
        terms = []
        for sign, mono in re.findall(r"([+-]?)\s*([^+-]+)", text):
            terms.append((mono.strip(), -1 if sign == "-" else 1))
        return cls(tuple(terms), coeff_max)

    def render(self, rng: random.Random | None) -> str:
        out = ""
        for i, (mono, sign) in enumerate(self.terms):
            c = 1 if rng is None else rng.randint(1, self.coeff_max)
            body = str(c) if mono == "1" else (mono if c == 1 else f"{c}*{mono}")
            if i == 0:
                out = body if sign > 0 else f"-{body}"
            else:
                out += f" {'+' if sign > 0 else '-'} {body}"
        return out


# -- job specifications -----------------------------------------------------------


@dataclass
class Spec:
    """One job: CLI argv (kind "cli") or a library call (kind "lib").

    `inputs` is what the seed chose (compared against golden.json)."""

    name: str
    kind: str
    argv: list = field(default_factory=list)
    call: str = ""
    params: dict = field(default_factory=dict)
    capture_grid: bool = False

    @property
    def inputs(self) -> str:
        return " ".join(self.argv) if self.kind == "cli" else \
            f"{self.call} {json.dumps(self.params, sort_keys=True)}"


def _rng(seed: int, job: str) -> random.Random | None:
    return None if seed == DEFAULT_SEED else random.Random(f"{seed}/{job}")


def _coeffs(rng, n, hi):
    return [1 if rng is None else rng.randint(1, hi) for _ in range(n)]


def plan(workload: str, seed: int, workdir: str) -> tuple[list, list]:
    """(setup argvs, job specs) for one workload at one seed.  Setup argvs
    write the workload's input files into `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return globals()[f"_plan_{workload}"](seed, workdir)


def _grid(name, seed, p, poly, extra=(), g=None, chi=None, n=None,
          spot_check=False):
    rng = _rng(seed, name)
    argv = ["grid", "--p", str(p), "--f", poly.render(rng)]
    if spot_check:  # the CLI's global --seed picks the spot-check h
        argv = ["--seed", str(seed)] + argv
    if n is not None:
        argv += ["--n", str(n)]
    if g is not None:
        argv += ["--g", g.render(rng), "--chi-order", str(chi)]
    return Spec(name, "cli", argv + list(extra), capture_grid=True)


def _plan_grid_verify(seed, workdir):
    chain = os.path.join(workdir, "diag4.chain.json")
    # one coefficient vector shared by the chain and the verified variety;
    # at most 12 so it stays nonzero modulo every verify prime
    a = _coeffs(_rng(seed, "verify_diag4"), 4, 12)
    setup = [["catalog", "build", "diagonal_quadratic", "--params",
              "n=4,coeffs=" + ":".join(map(str, a)), "--chain-out", chain]]
    variety = " + ".join(f"x{i + 1}^2" if c == 1 else f"{c}*x{i + 1}^2"
                         for i, c in enumerate(a))
    jobs = [
        Spec("quadric_blocks_p5", "cli",
             ["catalog", "build", "quadric_blocks", "--params", "n_blocks=2",
              "--p", "5"]),
        _grid("grid_p127_n2", seed, 127, Poly.parse("x1^3 + x1*x2^2", 126)),
        _grid("grid_p23_n4", seed, 23, Poly.parse("x1*x2 + x3*x4^2", 22), n=4),
        _grid("twisted_p257_n2", seed, 257, Poly.parse("x1^2 + x2^3", 256),
              g=Poly.parse("x1 + x2 + 1", 256), chi=2),
        _grid("twisted_p61_n3", seed, 61, Poly.parse("x1^2*x2 + x3^3", 60),
              g=Poly.parse("x1*x2 + x3 + 1", 60), chi=3),
        # p=13 is the one prime here small enough (p^4 <= 2^16) for the CLI
        # to run the chain containment check
        Spec("verify_diag4", "cli",
             ["verify", "--chain", chain, "--p", "13,17,19", "--variety",
              variety, "--d", "3", "--C", "2"]),
    ]
    return setup, jobs


def _plan_field_enum(seed, workdir):
    f1 = Poly.parse("x1^3*x2 + x2^2 + x1", 2)
    v2, f2 = Poly.parse("x1^2 + x2^3 + 1", 4), Poly.parse("x1*x2", 4)
    w2 = Poly.parse("x1*x2^2 + x1", 2)
    v3, f3 = Poly.parse("x1^2 + x1 + 2", 2), Poly.parse("x1", 2)
    r2, r3 = _rng(seed, "sum_p5_m3_variety"), _rng(seed, "weights_enum")
    kl = _coeffs(_rng(seed, "weights_kloosterman"), 1, 4)[0]
    jobs = [
        Spec("sum_p3_m4", "cli",
             ["sum", "--p", "3", "--m", "4", "--n", "2", "--f",
              f1.render(_rng(seed, "sum_p3_m4"))]),
        Spec("sum_p5_m3_variety", "cli",
             ["sum", "--p", "5", "--m", "3", "--n", "2", "--variety",
              v2.render(r2), "--f", f2.render(r2)]),
        Spec("smooth_form_p13", "cli",
             ["catalog", "build", "smooth_form", "--p", "13"]),
        Spec("weights_kloosterman", "cli",
             ["weights", "--p", "5", "--N", "8", "--kloosterman", str(kl),
              "--w-max", "1"]),
        Spec("weights_2var", "cli",
             ["weights", "--p", "3", "--N", "6", "--n", "2", "--f",
              w2.render(_rng(seed, "weights_2var")), "--w-max", "4"]),
        # a one-variable spec on a variety takes the enumeration path of
        # extension_sum, so every extension-sum path is exercised once
        Spec("weights_enum", "cli",
             ["weights", "--p", "3", "--N", "6", "--variety", v3.render(r3),
              "--f", f3.render(r3), "--w-max", "0"]),
    ]
    return [], jobs


def _plan_exact_identities(seed, workdir):
    cone = Poly.parse("x1^2 + x2^2 + x3^2", 12)
    sf = Poly.parse("y^2 - x1^3 - x2", 60)
    binpath = os.path.join(workdir, "grid_p31.bin")
    jobs = [
        Spec("family_identity_n2_p7", "lib", call="family_identity_check",
             params={"n": 2, "p": 7}),
        Spec("family_identity_n1_p31", "lib", call="family_identity_check",
             params={"n": 1, "p": 31}),
        Spec("cone_identity_p13", "lib", call="cone_sum_identity",
             params={"F": cone.render(_rng(seed, "cone_identity_p13")), "p": 13}),
        _grid("grid_p31_bin", seed, 31, Poly.parse("x1^2*x2 + x2^3", 30),
              extra=("--spot-check", "20", "--bin", binpath), spot_check=True),
        Spec("S_F_grid_p61", "lib", call="S_F_grid",
             params={"F": sf.render(_rng(seed, "S_F_grid_p61")), "p": 61}),
    ]
    return [], jobs


# -- running one job ----------------------------------------------------------------


@dataclass
class Outcome:
    rc: int | None = None
    stdout: str = ""
    value: object = None
    grids: list = field(default_factory=list)
    error: str | None = None


def run_cli(argv: list, capture_grid: bool = False) -> Outcome:
    """cli.main(argv) with stdout captured.  With capture_grid, the grids the
    CLI builds are kept for the checks (one reference per call, no copy)."""
    from stratsums import cli

    out = Outcome()
    real = cli.complete_grid
    if capture_grid:
        def keep(*args, **kwargs):
            grid = real(*args, **kwargs)
            out.grids.append(grid)
            return grid
        cli.complete_grid = keep
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            out.rc = cli.main(argv)
    finally:
        cli.complete_grid = real
        out.stdout = buf.getvalue()
    return out


def run_lib(spec: Spec) -> Outcome:
    from stratsums import catalog, polyring, sumengine

    kw = dict(spec.params)
    if "F" in kw:
        kw["F"] = polyring.parse_poly(kw["F"])
    fn = {"family_identity_check": catalog.family_identity_check,
          "cone_sum_identity": sumengine.cone_sum_identity,
          "S_F_grid": sumengine.S_F_grid}[spec.call]
    return Outcome(value=fn(**kw))


def timed(spec: Spec) -> tuple[float, Outcome]:
    """Run one job; return (seconds, outcome).  An exception escaping the job
    is recorded on the outcome, never raised."""
    t0 = time.perf_counter()
    try:
        if spec.kind == "cli":
            out = run_cli(spec.argv, spec.capture_grid)
            if "--bin" in spec.argv:  # read the dump back: the round trip
                from stratsums.sumengine import SumGrid
                out.value = SumGrid.from_binary(spec.argv[spec.argv.index("--bin") + 1])
        else:
            out = run_lib(spec)
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        out = Outcome(error=f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, out


# -- checks ---------------------------------------------------------------------------


def _sha(arr) -> str:
    import numpy as np
    a = np.ascontiguousarray(arr, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


def observe(spec: Spec, out: Outcome, workdir: str) -> dict:
    """The exact, comparable part of a job's output (golden.json entries)."""
    obs: dict = {"rc": out.rc}
    if spec.kind == "cli":
        text = out.stdout.replace(workdir, "<work>")
        if spec.name.startswith("weights"):
            obs.update(_weights_summary(text))
        else:
            obs["stdout"] = text
        exact = [g for g in out.grids if g.counts is not None]
        if exact:
            obs["counts_sha"] = [_sha(g.counts) for g in exact]
    elif spec.call == "S_F_grid":
        obs["counts_sha"] = _sha(out.value.counts)
    else:
        ok, bad = out.value
        obs.update(ok=bool(ok), mismatches=len(bad))
    return obs


def _weights_summary(text: str) -> dict:
    body = text[:text.rindex("}") + 1]
    prof = json.loads(body)
    return {"rank": prof["rank"], "weights": prof["weights"],
            "mults": [r["mult"] for r in prof["roots"]],
            "signs": [r["sign"] for r in prof["roots"]],
            "verdict": text.strip().splitlines()[-1]}


def check(spec: Spec, out: Outcome, seed: int, workdir: str,
          golden: dict | None) -> list:
    """Problems with one job's output: exit code, the repo's own oracles, and
    (where the inputs match the golden run) the exact golden observation."""
    if out.error:
        return [f"raised {out.error}"]
    problems = []
    if spec.kind == "cli" and out.rc != 0:
        problems.append(f"exit code {out.rc}")
    try:
        problems += _oracle(spec, out, seed)
    except Exception as exc:  # malformed output is a failed check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    ref = (golden or {}).get(spec.name)
    if ref is not None and ref["inputs"] == spec.inputs.replace(workdir, "<work>"):
        try:
            got = observe(spec, out, workdir)
        except Exception as exc:
            got = {"error": f"{type(exc).__name__}: {exc}"}
        if got != ref["observation"]:
            diff = sorted(k for k in set(got) | set(ref["observation"])
                          if got.get(k) != ref["observation"].get(k))
            problems.append(f"differs from golden in {', '.join(diff)}")
    return problems


def _oracle(spec: Spec, out: Outcome, seed: int) -> list:
    text = out.stdout
    name = spec.name
    if name in ("quadric_blocks_p5", "smooth_form_p13"):
        bad = []
        if "PASS" not in text:
            bad.append("no PASS verdict")
        if not re.search(r"expected-exponent table at p=\d+: OK", text):
            bad.append("expected-exponent table mismatch")
        return bad
    if name == "verify_diag4":
        verdicts = re.findall(r"^p=\d+ .* (PASS|FAIL)", text, re.M)
        return [] if verdicts == ["PASS"] * 3 else [f"verdicts {verdicts}"]
    if name.startswith("weights"):
        return [] if text.strip().endswith("weight check: PASS") else \
            ["weight check did not pass"]
    if name.startswith("sum_"):
        return _check_sum(text)
    if name.startswith(("grid_", "twisted_")):
        return _check_grid(spec, out, seed)
    if spec.call in ("family_identity_check", "cone_sum_identity"):
        ok, bad = out.value
        return [] if ok else [f"identity failed at {len(bad)} parameters"]
    if spec.call == "S_F_grid":
        p = spec.params["p"]
        got = out.value.cyclo_at((0, 0))
        return [] if got.is_integer() and got.as_integer() == p * p else \
            [f"S_F(0) = {got}, want {p * p}"]
    return [f"no check for job {name}"]


def _check_sum(text: str) -> list:
    """Canonical zeta-counts are raw counts minus their minimum, so their
    sum equals the point count modulo p and never exceeds it."""
    m = re.search(r"zeta_(\d+) counts \(([^)]*)\)", text)
    pts = re.search(r"points: (\d+)", text)
    if not m or not pts:
        return ["no exact counts or point count printed"]
    p = int(m.group(1))
    total = sum(int(c) for c in m.group(2).split(","))
    npts = int(pts.group(1))
    if total > npts or (npts - total) % p:
        return [f"zeta-counts sum {total} inconsistent with {npts} points"]
    return []


def _check_grid(spec: Spec, out: Outcome, seed: int) -> list:
    """Compare the grid with sums evaluated directly over F_p^n at h = 0 and
    three seeded h; exact grids must match in zeta-counts, bit for bit."""
    import numpy as np
    from stratsums.cyclo import CycloValue
    from stratsums.ffield import FieldCtx
    from stratsums.polyring import parse_poly

    if len(out.grids) != 1:
        return [f"expected one grid, captured {len(out.grids)}"]
    grid = out.grids[0]
    args = spec.argv[spec.argv.index("grid") + 1:]
    opt = dict(zip(args[::2], args[1::2]))
    p = int(opt["--p"])
    n = grid.n
    f = parse_poly(opt["--f"], nvars=n)
    mesh = np.indices((p,) * n, dtype=np.int64)
    fvals = _values(f, mesh, p)
    chi = None
    if "--g" in opt:
        g = parse_poly(opt["--g"], nvars=n)
        chi = FieldCtx(p).mult_char_table(int(opt["--chi-order"]))[_values(g, mesh, p)]
    rng = random.Random(f"{seed}/{spec.name}/h")
    hs = [(0,) * n] + [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
    bad = []
    for h in hs:
        phase = (fvals + sum(hi * mesh[i] for i, hi in enumerate(h))) % p
        if chi is None:
            want = CycloValue(p, np.bincount(phase.reshape(-1), minlength=p))
            if grid.cyclo_at(h) != want:
                bad.append(f"exact value differs at h={h}")
        else:
            zeta = np.exp(2j * np.pi * np.arange(p) / p)
            want = complex(np.sum(chi * zeta[phase]))
            if abs(grid.value_at(h) - want) > 1e-6 * max(1.0, abs(want)):
                bad.append(f"value differs at h={h}")
    if out.value is not None:  # the --bin round trip stores the exact counts
        back = out.value
        if (back.p, back.n) != (grid.p, grid.n) or back.counts is None or \
                not np.array_equal(back.counts, grid.counts):
            bad.append("binary round trip is not bit-exact")
    return bad


def _values(poly, mesh, p):
    """poly mod p over the grid, evaluated term by term in int64."""
    import numpy as np
    out = np.zeros(mesh.shape[1:], dtype=np.int64)
    for exps, coeff in poly.terms.items():
        term = np.full(mesh.shape[1:], coeff % p, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * mesh[i] % p
        out = (out + term) % p
    return out


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
