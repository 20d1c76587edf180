"""The four benchmark workloads: seeded inputs, one timed pass, known answers.

Every workload builds its inputs from the seed alone and hands the library
only those inputs.  A pass is the unit of timed work; ``run_pass`` returns a
``PassResult`` whose counts say how many operations were attempted, failed or
reported unknown, and which outputs contradicted their known answer.

The in-process workloads drive the library through its public functions.
``verify-suite`` runs the ``affmod`` command in a fresh interpreter per
invocation, so it never imports the library in the benchmark process.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class PassResult:
    seconds: float  # wall time of the whole pass
    tasks: list  # (task id, seconds, completed) per task, in pass order
    decided: int  # tasks decided (checks, bases or queries)
    attempted: int  # operations attempted
    failed: int = 0  # operations that crashed or gave a wrong answer
    unknown: int = 0  # checks reported unknown
    wrong: list = field(default_factory=list)  # failures that are not known defects
    trace: dict = None  # merged child trace summaries (verify-suite only)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def seeded_prime(rng: random.Random) -> int:
    """A five-digit prime drawn from the seed."""
    n = rng.randrange(10_007, 99_000)
    while any(n % d == 0 for d in range(2, int(n**0.5) + 1)):
        n += 1
    return n


# -- integer polynomials as dicts, for building inputs and known answers -----


def _dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _dmul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _dvar(nvars: int, i: int) -> dict:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def cyclic(n: int) -> list:
    """The cyclic-n system in n variables."""
    out = []
    for d in range(1, n):
        s = {}
        for i in range(n):
            t = {(0,) * n: 1}
            for j in range(d):
                t = _dmul(t, _dvar(n, (i + j) % n))
            s = _dadd(s, t)
        out.append(s)
    prod = {(1,) * n: 1}
    out.append(_dadd(prod, {(0,) * n: -1}))
    return out


def katsura(n: int) -> list:
    """The katsura-n system in the n + 1 variables x0..xn."""
    nv = n + 1

    def x(i):
        i = abs(i)
        return _dvar(nv, i) if i <= n else {}

    out = [_dadd(_sum([x(i) for i in range(-n, n + 1)]), {(0,) * nv: -1})]
    for m in range(n):
        s = _sum([_dmul(x(i), x(m - i)) for i in range(-n, n + 1)])
        out.append(_dadd(s, {k: -c for k, c in x(m).items()}))
    return out


def _sum(polys) -> dict:
    out = {}
    for p in polys:
        out = _dadd(out, p)
    return out


def grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def lex_key(mono):
    return mono


def poly_text(terms: dict, names) -> str:
    """Text in the library's grammar for an integer-coefficient polynomial,
    written in grevlex-descending order as the library formats it."""
    if not terms:
        return "0"
    pieces = []
    for m in sorted(terms, key=grevlex_key, reverse=True):
        c = terms[m]
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e
        )
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def _in_field(terms: dict, p: int) -> dict:
    """Integer coefficients as field elements: Fractions, or residues mod p."""
    if p:
        return {m: c % p for m, c in terms.items() if c % p}
    return {m: Fraction(c) for m, c in terms.items()}


class Workload:
    """Defaults shared by the workloads."""

    in_process = True  # drives the library inside the benchmark process
    wall_is_task = False  # wall_s is one pass, not one task

    def check(self, state) -> list:
        """Checks made once after the timed passes; the problems found."""
        return []


# -- verify-suite -------------------------------------------------------------

CLAIM_IDS = sorted(
    [f"{f}-n{n}" for f in ("fibers", "samuel", "localization") for n in range(1, 6)]
    + [f"main-identities-n{n}" for n in range(2, 6)]
    + ["isomorphism-chain", "isomorphism-chain-repaired", "degree-probe"]
)
DELIBERATE_RED = "isomorphism-chain"
# Defects present when the benchmark was defined.  They count as failed
# operations (so a fix lowers failed_frac) but do not mark the run incorrect;
# any other wrong answer does.
KNOWN_DEFECTS = {
    ("fp:3", "fibers-n3"): "false red: 3 | n merges the cube roots of unity",
    ("fp:2", None): "crash: the default lambda 1/2 has no value in F_2",
}


class VerifySuite(Workload):
    name = "verify-suite"
    in_process = False
    wall_is_task = True  # wall_s is the time of one completed invocation

    def build(self, seed: int):
        rng = random.Random(seed)
        return {"specs": ["rational", f"fp:{seeded_prime(rng)}", "fp:3", "fp:2"]}

    def run_pass(self, state, mode: str = "plain") -> PassResult:
        """One ``affmod all`` per field spec.  mode "plain" runs the command
        itself; "spans" and "profile" run it under a tracer in child.py and
        merge the children's trace summaries into ``PassResult.trace``."""
        OUT_DIR.mkdir(exist_ok=True)
        res = PassResult(0.0, [], 0, 0, trace={} if mode != "plain" else None)
        t_pass = time.perf_counter()
        for spec in state["specs"]:
            report = OUT_DIR / f"verify-{spec.replace(':', '_')}.jsonl"
            report.unlink(missing_ok=True)
            argv = ["all", "--field", spec, "--json", str(report)]
            if mode == "plain":
                cmd = [sys.executable, "-m", "affmod.cli"] + argv
            else:
                summary = OUT_DIR / f"child-{mode}-{spec.replace(':', '_')}.json"
                cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode,
                       str(summary), "--"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=170)
            elapsed = time.perf_counter() - t0
            if mode != "plain":
                from tracing import merge_summaries

                merge_summaries(res.trace, json.loads(summary.read_text()))
            self._judge(spec, proc, report, elapsed, res)
        res.seconds = time.perf_counter() - t_pass
        return res

    @staticmethod
    def _judge(spec, proc, report: Path, elapsed: float, res: PassResult):
        res.attempted += len(CLAIM_IDS)
        if "Traceback (most recent call last)" in proc.stderr or not report.exists():
            # a crashed invocation decides nothing and gives no latency sample
            res.tasks.append((spec, elapsed, False))
            res.failed += len(CLAIM_IDS)
            if (spec, None) not in KNOWN_DEFECTS:
                res.wrong.append(f"{spec}: affmod all crashed: "
                                 f"{proc.stderr.strip().splitlines()[-1:]}")
            return
        res.tasks.append((spec, elapsed, True))
        reports = [json.loads(line) for line in report.read_text().splitlines()]
        ids = sorted(r["claim_id"] for r in reports)
        if ids != CLAIM_IDS:
            res.wrong.append(f"{spec}: claim ids {ids} differ from {CLAIM_IDS}")
        if proc.returncode != 1:
            res.wrong.append(f"{spec}: exit code {proc.returncode}, expected 1 "
                             "(the deliberate red)")
        for r in reports:
            status, cid = r["status"], r["claim_id"]
            res.decided += 1
            res.unknown += status == "unknown"
            ok = status == "failed" if cid == DELIBERATE_RED else status != "failed"
            if not ok:
                res.failed += 1
                if (spec, cid) not in KNOWN_DEFECTS:
                    res.wrong.append(f"{spec}: {cid} is {status}")


# -- scaled-params ------------------------------------------------------------


class ScaledParams(Workload):
    name = "scaled-params"
    probe_n, probe_box = 20, 20

    def build(self, seed: int):
        rng = random.Random(seed)
        # a fixed grid with seeded jitter keeps the work of a pass near-constant
        ns = [150 + 50 * k + rng.randrange(10) for k in range(6)]
        pool = sorted({Fraction(a, b) for a in range(-5, 6) for b in range(1, 6)}
                      - {Fraction(0), Fraction(1)})
        lambdas = [Fraction(0), Fraction(1)] + rng.sample(pool, 3)
        return {"ns": ns, "lambdas": lambdas}

    def run_pass(self, state) -> PassResult:
        from affmod import verifier

        tasks = [("degree-probe", lambda: verifier.cmd_degree_probe(
            n_max=self.probe_n, box=self.probe_box))]
        for n in state["ns"]:
            tasks.append((f"fibers-n{n}", lambda n=n: verifier.cmd_fibers(
                n, state["lambdas"])))
            tasks.append((f"samuel-n{n}", lambda n=n: verifier.cmd_samuel(n)))
        res = PassResult(0.0, [], 0, 0)
        t_pass = time.perf_counter()
        for claim, run in tasks:
            res.attempted += 1
            t0 = time.perf_counter()
            report = run()
            res.tasks.append((claim, time.perf_counter() - t0, True))
            res.decided += 1
            res.unknown += report.status == "unknown"
            problem = self._judge(claim, report, state)
            if problem:
                res.failed += 1
                res.wrong.append(problem)
        res.seconds = time.perf_counter() - t_pass
        return res

    def _judge(self, claim, report, state):
        if report.claim_id != claim or report.status != "verified":
            return f"{claim}: {report.claim_id} is {report.status} ({report.detail})"
        if claim.startswith("fibers") and len(report.transcript) != 3 * len(
                state["lambdas"]):
            return f"{claim}: {len(report.transcript)} fiber rows"
        if claim == "degree-probe" and len(report.payload) != self.probe_n * (
                (2 * self.probe_box + 1) ** 2 - 1):
            return f"{claim}: {len(report.payload)} weight cases"
        return None


# -- groebner-std -------------------------------------------------------------

# (name, system, variable count, order, over GF(P)?, reduced-basis size)
GB_PROBLEMS = [
    ("cyclic4-grevlex", lambda: cyclic(4), 4, "grevlex", False, 7),
    ("cyclic4-lex", lambda: cyclic(4), 4, "lex", False, 6),
    ("katsura4-qq", lambda: katsura(4), 5, "grevlex", False, 13),
    ("katsura4-gfp", lambda: katsura(4), 5, "grevlex", True, 13),
    ("katsura5-gfp", lambda: katsura(5), 6, "grevlex", True, 22),
]


def _scaled_system(rng: random.Random, system: list, nvars: int) -> list:
    """Permute the generators and substitute x_i -> c_i * x_i."""
    system = list(system)
    rng.shuffle(system)
    cs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(nvars)]
    out = []
    for g in system:
        scaled = {}
        for m, c in g.items():
            for ci, e in zip(cs, m):
                c *= ci**e
            scaled[m] = c
        out.append(scaled)
    return out


def _monic(terms: dict, key, p: int) -> frozenset:
    """The polynomial scaled to leading coefficient 1, as a set of terms."""
    lead = terms[max(terms, key=key)]
    if p:
        inv = pow(lead, -1, p)
        return frozenset((m, c * inv % p) for m, c in terms.items())
    return frozenset((m, c / lead) for m, c in terms.items())


class GroebnerStd(Workload):
    name = "groebner-std"

    def build(self, seed: int):
        from affmod import GREVLEX, LEX, PrimeField, QQ, Ring, parse_poly

        rng = random.Random(seed)
        p = seeded_prime(rng)
        problems = []
        for name, system, nvars, order, modular, size in GB_PROBLEMS:
            names = tuple(f"x{i}" for i in range(nvars))
            ring = Ring(names, PrimeField(p) if modular else QQ)
            gens = _scaled_system(rng, system(), nvars)
            polys = [parse_poly(poly_text(g, names), ring) for g in gens]
            problems.append({
                "name": name, "gens": gens, "polys": polys, "names": names,
                "order": GREVLEX if order == "grevlex" else LEX, "order_name": order,
                "p": p if modular else 0, "size": size,
            })
        return {"p": p, "problems": problems, "bases": {}}

    def run_pass(self, state) -> PassResult:
        from affmod import buchberger_gb

        res = PassResult(0.0, [], 0, 0)
        t_pass = time.perf_counter()
        for prob in state["problems"]:
            res.attempted += 1
            t0 = time.perf_counter()
            gb = buchberger_gb(prob["polys"], prob["order"])
            res.tasks.append((prob["name"], time.perf_counter() - t0, True))
            res.decided += 1
            key = grevlex_key if prob["order_name"] == "grevlex" else lex_key
            basis = frozenset(_monic(g.terms, key, prob["p"]) for g in gb)
            state["bases"].setdefault(prob["name"], set()).add(basis)
            if len(gb) != prob["size"]:
                res.failed += 1
                res.wrong.append(f"{prob['name']}: basis of {len(gb)} elements, "
                                 f"expected {prob['size']}")
        res.seconds = time.perf_counter() - t_pass
        return res

    def check(self, state) -> list:
        """Compare every basis computed against sympy's reduced basis (outside
        the timed region) and record sympy's time on the same inputs."""
        problems = []
        for name, bases in state["bases"].items():
            if len(bases) != 1:
                problems.append(f"{name}: passes gave {len(bases)} different bases")
        try:
            import sympy
        except ImportError:
            state["reference"] = "sympy not importable; bases checked by size only"
            return problems
        total = 0.0
        for prob in state["problems"]:
            gens = sympy.symbols(prob["names"])
            exprs = [sum(c * sympy.prod([v**e for v, e in zip(gens, m)])
                         for m, c in g.items()) for g in prob["gens"]]
            kwargs = {"modulus": prob["p"]} if prob["p"] else {"domain": sympy.QQ}
            t0 = time.perf_counter()
            ref = sympy.groebner(exprs, *gens, order=prob["order_name"], **kwargs)
            total += time.perf_counter() - t0
            key = grevlex_key if prob["order_name"] == "grevlex" else lex_key
            expected = set()
            for poly in ref.polys:
                terms = {}
                for m, c in poly.as_dict().items():
                    c = sympy.Rational(c)
                    terms[m] = (int(c) % prob["p"] if prob["p"]
                                else Fraction(int(c.p), int(c.q)))
                expected.add(_monic(terms, key, prob["p"]))
            if state["bases"].get(prob["name"]) != {frozenset(expected)}:
                problems.append(f"{prob['name']}: basis differs from sympy.groebner")
        state["reference"] = f"sympy.groebner on the same inputs: {total:.3f} s"
        return problems


# -- ideal-queries ------------------------------------------------------------

B_N_GEN = "x^{n}*y*u - u - x + 1"
C1_GENS = ["u*x - y + 1", "v*y - x + 1"]
C2_GENS = ["U*X*Y - U - X + 1", "V*X*Y - V - Y + 1"]


class IdealQueries(Workload):
    name = "ideal-queries"
    n_queries = 2000

    def build(self, seed: int):
        from affmod import (GREVLEX, Ideal, PresentedRing, PrimeField, Ring,
                            build_Bn, build_C1, build_C2, parse_poly)

        rng = random.Random(seed)
        p = seeded_prime(rng)
        ns = [rng.choice(group) for group in ((1, 2), (3, 4, 5), (6, 7, 8))]
        targets = []
        for n in ns:
            targets.append((f"B{n}", build_Bn(n), [B_N_GEN.format(n=n)], 0))
        targets.append(("C1", build_C1(), C1_GENS, 0))
        targets.append(("C2", build_C2(), C2_GENS, 0))
        knames = tuple(f"x{i}" for i in range(5))
        kring = Ring(knames, PrimeField(p))
        ktexts = [poly_text(g, knames) for g in katsura(4)]
        kideal = Ideal([parse_poly(t, kring) for t in ktexts], GREVLEX)
        targets.append(("K4", PresentedRing(kring, kideal, knames), ktexts, p))

        ideals = []
        for label, presented, gen_texts, modulus in targets:
            gb = presented.defining.groebner_basis  # the set-up cost
            lms = [g.leading(presented.defining.order)[0] for g in gb]
            nv = presented.ambient.nvars
            standard = [m for m in _monomials(nv, 3)
                        if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)]
            ideals.append({"label": label, "ring": presented, "gens": gen_texts,
                           "names": presented.ambient.variables, "p": modulus,
                           "standard": standard})
        queries = [self._query(rng, ideals[i % len(ideals)], i // len(ideals))
                   for i in range(self.n_queries)]
        rng.shuffle(queries)
        return {"ideals": ideals, "queries": queries}

    @staticmethod
    def _query(rng: random.Random, ideal: dict, i: int) -> dict:
        names, nv = ideal["names"], len(ideal["names"])

        def small_poly(pool=None):
            """Three terms with coefficients in +-1..9: monomials from pool,
            or of degree at most 2."""
            out = {}
            for _ in range(3):
                m = rng.choice(pool) if pool else _bounded_mono(rng, nv, 2)
                out[m] = out.get(m, 0) + rng.choice([-1, 1]) * rng.randint(1, 9)
            return {m: c for m, c in out.items() if c}

        gens = rng.sample(ideal["gens"], min(2, len(ideal["gens"])))
        combo = " + ".join(f"({poly_text(small_poly(), names)})*({g})" for g in gens)
        r = small_poly(ideal["standard"]) or {ideal["standard"][-1]: 1}
        kind = ("nf", "nf", "contains", "equal")[i % 4]
        q = {"ideal": ideal, "kind": kind}
        if kind == "nf":
            q["text"] = f"{combo} + {poly_text(r, names)}"
            q["expect"] = _in_field(r, ideal["p"])
            q["expect_text"] = poly_text(q["expect"], names)
        elif kind == "contains":
            member = rng.random() < 0.5
            q["text"] = combo if member else f"{combo} + {poly_text(r, names)}"
            q["expect"] = member
        else:
            equal = rng.random() < 0.5
            other = r if equal else _dadd(r, {rng.choice(
                [m for m in ideal["standard"] if m not in r]): 1})
            q["text"] = f"{combo} + {poly_text(r, names)}"
            q["other"] = poly_text(other, names)
            q["expect"] = equal
        return q

    def run_pass(self, state) -> PassResult:
        from affmod import format_poly, normal_form, parse_poly

        res = PassResult(0.0, [], 0, 0)
        t_pass = time.perf_counter()
        for i, q in enumerate(state["queries"]):
            presented = q["ideal"]["ring"]
            ring = presented.ambient
            res.attempted += 1
            t0 = time.perf_counter()
            p = parse_poly(q["text"], ring)
            if q["kind"] == "nf":
                nf = normal_form(p, presented.defining)
                answer = format_poly(nf)
            elif q["kind"] == "contains":
                answer = presented.defining.contains(p)
            else:
                answer = presented.equal(p, parse_poly(q["other"], ring))
            res.tasks.append((i, time.perf_counter() - t0, True))
            res.decided += 1
            if q["kind"] == "nf":
                ok = nf.terms == q["expect"] and answer == q["expect_text"]
            else:
                ok = answer is q["expect"]
            if not ok:
                res.failed += 1
                res.wrong.append(f"{q['ideal']['label']} {q['kind']}: {q['text']!r} "
                                 f"gave {answer!r}")
        res.seconds = time.perf_counter() - t_pass
        return res


def _monomials(nvars: int, degree: int) -> list:
    """Every exponent vector of total degree at most ``degree``."""
    if nvars == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1)
            for rest in _monomials(nvars - 1, degree - e)]


def _bounded_mono(rng: random.Random, nvars: int, degree: int) -> tuple:
    e = [0] * nvars
    for _ in range(rng.randint(0, degree)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


WORKLOADS = {w.name: w for w in (VerifySuite(), ScaledParams(), GroebnerStd(),
                                  IdealQueries())}
