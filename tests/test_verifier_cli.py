import hashlib
import json
import os
import subprocess
import sys
from argparse import ArgumentTypeError
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmod import (
    GREVLEX,
    Ideal,
    degrees,
    ideals,
    ideals_equal,
    normal_form,
    poly,
    ring,
    verifier,
    verify_ring_map,
)
from affmod.cli import FIELD_ENV_VAR, build_parser, run
from affmod.report import VerificationReport, summarize
from affmod.rings import build_C1, build_C2, c1_alternate_ideal, c1_to_c2_map
from affmod.scalars import QQ, PrimeField, field_from_spec
from affmod.verifier import (
    CHECKS,
    cmd_degree_probe,
    cmd_fibers,
    cmd_localization,
    cmd_main_identities,
    cmd_samuel,
    cmd_takanori,
    cmd_takanori_repaired,
    run_all,
)


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestVerifierCommands:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fibers(self, n):
        rep = cmd_fibers(n)
        assert rep.status == "verified"
        assert rep.claim_id == f"fibers-n{n}"
        assert len(rep.transcript) == 15  # 3 generators x 5 default parameters

    def test_fibers_print_coefficients_of_any_length(self):
        # the x = 2 fiber has the coefficient 2^14285, of 4301 digits
        rep = cmd_fibers(14285)
        assert (rep.claim_id, rep.status) == ("fibers-n14285", "verified")
        digits = str(Decimal(2**14285))
        assert any(line.startswith(f"x = 2: {digits}*") for line in rep.transcript)

    def test_fibers_print_lambdas_of_any_length(self):
        ones = "1" * 5000
        rep = cmd_fibers(2, [Fraction(10**5000 // 9)])
        assert (rep.status, rep.detail) == ("verified", "3 fibers match")
        assert rep.transcript[0].startswith(f"x = {ones}: ")
        rep = cmd_fibers(2, [Fraction(10**5000 // 9, 3)], PrimeField(3))
        assert rep.transcript == [
            f"lambda = {ones}/3: skipped [note: its denominator is 0 in GF(3)]"]

    def test_fibers_make_no_multivariate_division(self, monkeypatch):
        # every fiber class is decided on dense univariate lists
        calls = _count_calls(monkeypatch, poly, "divide_multi")
        assert cmd_fibers(30).status == "verified"
        assert calls == []

    def test_samuel_builds_one_groebner_basis(self, monkeypatch):
        calls = _count_calls(monkeypatch, ideals, "buchberger_gb")
        assert cmd_samuel(30).status == "verified"
        assert len(calls) == 1

    def test_fibers_prime_field(self):
        rep = cmd_fibers(2, field=PrimeField(101))
        assert rep.status == "verified"

    @pytest.mark.parametrize("p", [2, 3])
    def test_fibers_skip_lambda_without_value(self, p):
        rep = cmd_fibers(2, [0, 1, 2, Fraction(1, p)], field=PrimeField(p))
        assert rep.status != "failed"
        assert rep.transcript[0] == (
            f"lambda = 1/{p}: skipped [note: its denominator is 0 in GF({p})]"
        )
        assert len(rep.transcript) == 1 + 3 * 3

    def test_fibers_with_no_usable_lambda_is_unknown(self):
        rep = cmd_fibers(3, [Fraction(1, 2)], field=PrimeField(2))
        assert rep.status == "unknown"
        assert rep.detail == "no lambda is usable in GF(2), so no fiber was classified"
        assert rep.transcript == [
            "lambda = 1/2: skipped [note: its denominator is 0 in GF(2)]"]

    def test_isomorphism_chain_literal_fails(self):
        rep = cmd_takanori()
        assert rep.status == "failed"
        joined = "\n".join(rep.transcript)
        assert "I = J as ideals: False" in joined
        assert "u = v = -1" in joined
        assert "1 + u*x = y modulo J: False" in joined
        assert "V = 1 - Y*U in C2 (so C2 is generated by X, Y, U): False" in joined
        # the one sub-claim that does hold literally
        assert "defining relations of C2: True" in joined

    def test_isomorphism_chain_repaired_verifies(self):
        rep = cmd_takanori_repaired()
        assert rep.status == "verified"
        joined = "\n".join(rep.transcript)
        assert "phi(I) = I2 as ideals: True" in joined
        assert "n=1 relation" in joined

    def test_isomorphism_chain_completions(self, monkeypatch):
        # both chains are decided by identities and evaluated witnesses, so
        # only Samuel's check completes a basis, once per n
        calls = _count_calls(monkeypatch, ideals, "buchberger_gb")
        cmd_takanori_repaired()
        cmd_takanori()
        assert calls == []
        run_all(PrimeField(7))
        assert len(calls) == 5

    @pytest.mark.parametrize("field", [QQ] + [PrimeField(p) for p in (101, 7, 5, 3, 2)],
                             ids=str)
    def test_isomorphism_chain_certificates_match_groebner(self, field):
        """Every verdict the literal chain reads off its certificates is the
        one the Groebner engine, the reference, gives."""
        c1, c2, J = build_C1(field), build_C2(field), c1_alternate_ideal(field)
        x, y, u, v = c1.ambient.gens()
        X, Y, U, V = c2.ambient.gens()
        rep = cmd_takanori(field)
        assert rep.status == "failed"
        # the half of "J is strictly smaller than I" no transcript line names
        assert all(c1.defining.contains(g) for g in J.generators)
        zero_divisor = J.contains((u * v - 1) * (u * x - y + 1))
        for line in [
            f"I = J as ideals: {ideals_equal(c1.defining, J)}",
            f"1 + u*x = y modulo J: {normal_form(1 + u * x - y, J).is_zero}",
            f"1 + v*y = x modulo J: {normal_form(1 + v * y - x, J).is_zero}",
            f"  (uv - 1)*(u*x - y + 1) in J: {zero_divisor}; the cancellation by "
            "the zero divisor uv - 1 is where the classical derivation breaks",
            "phi(x,y,u,v) = (U,V,-Y,-X) carries the generators of J onto the "
            f"defining relations of C2: {verify_ring_map(J, c2, c1_to_c2_map(field))}",
            "V = 1 - Y*U in C2 (so C2 is generated by X, Y, U): "
            f"{c2.equal(V, 1 - Y * U)}",
        ]:
            assert line in rep.transcript

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_samuel(self, n):
        rep = cmd_samuel(n)
        assert rep.status == "verified"
        assert "center point (1, 1)" in rep.detail

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_localization(self, n):
        assert cmd_localization(n).status == "verified"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_main_identities(self, n):
        rep = cmd_main_identities(n)
        assert rep.status == "verified"
        assert any("(0, 0, 0)" in line for line in rep.transcript)

    def test_main_identities_n1_is_unknown(self):
        rep = cmd_main_identities(1)
        assert rep.status == "unknown"
        assert rep.detail == "degenerate configuration at n=1; identities require n >= 2"
        assert rep.transcript == [
            "identity chain requires n >= 2; skipped",
            "at n=1 the constraint degenerates to 0 = dU + dY: dX is "
            "unconstrained (11 solutions); recorded, not a failure",
        ]

    def test_degree_probe(self):
        rep = cmd_degree_probe(n_max=3, box=3)
        assert rep.status == "verified"
        assert len(rep.payload) == 3 * (7 * 7 - 1)

    def test_degree_probe_restricted_set_fails(self, monkeypatch):
        monkeypatch.setattr(verifier, "exhaustive_probe", lambda ns, box:
                            degrees.exhaustive_probe(ns, box, ("x", "y", "u")))
        rep = cmd_degree_probe(n_max=2, box=2)
        assert rep.status == "failed"
        assert any("n=1" in line for line in rep.transcript)

    def test_run_all_composition(self):
        reports = run_all(n_values=(1, 2))
        ids = [r.claim_id for r in reports]
        assert ids == sorted(ids)
        assert "isomorphism-chain" in ids and "isomorphism-chain-repaired" in ids
        failed = [r.claim_id for r in reports if r.status == "failed"]
        # the literal chain is the single known-false claim
        assert failed == ["isomorphism-chain"]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("spec", ["rational"] + [f"fp:{p}" for p in (2, 3, 5, 7, 11, 13)])
def test_run_all_decides_every_small_field(spec, n):
    """run_all never raises over QQ and GF(p) for p <= 13, n in 1..6, and
    verifies every check but the deliberately red isomorphism chain."""
    reports = run_all(field_from_spec(spec), n_values=(n,))
    failed = [r.claim_id for r in reports if r.status == "failed"]
    assert failed == ["isomorphism-chain"]
    assert all(r.status == "verified" for r in reports if r.claim_id not in failed)


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("call, name", [
    (lambda v: cmd_fibers(v), "n"),
    (lambda v: cmd_samuel(v), "n"),
    (lambda v: cmd_localization(v), "n"),
    (lambda v: cmd_main_identities(v), "n"),
    (lambda v: cmd_degree_probe(v, 1), "n"),
    (lambda v: cmd_degree_probe(1, v), "box"),
], ids=["fibers", "samuel", "localization", "main-identities", "degree-probe-n",
        "degree-probe-box"])
def test_cmd_rejects_sizes_below_one(call, name, value):
    """Library callers get the check the CLI makes on --n and --box."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        call(value)


class TestMutatedFixtures:
    def test_sign_flipped_alternate_generator_changes_ideal(self):
        amb = c1_alternate_ideal().ring
        x, y, u, v = amb.gens()
        good = c1_alternate_ideal()
        bad = Ideal([x * (u * v - 1) - (v + 1), y * (u * v - 1) + (u + 1)], GREVLEX)
        assert not ideals_equal(good, bad)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
    @pytest.mark.parametrize("builder, mutate, line", [
        # j1 = x*(u*v - 1) + (v + 2) is 1 on the plane u = v = -1
        ("c1_alternate_ideal", lambda j1, j2: [j1 + 1, j2], "I = J as ideals: None"),
        # the second relation of C2 is 1 at X = Y = 1, U = V = 0
        ("build_C2", lambda g1, g2: [g1, g2 + 1],
         "V = 1 - Y*U in C2 (so C2 is generated by X, Y, U): None"),
        # the same ideal I, but j1 = v*i1 + i2 no longer holds
        ("build_C1", lambda i1, i2: [i1, i2 + i1],
         "  J in I is undecided: j1 = v*i1 + i2 or j2 = u*i2 + i1 fails"),
    ], ids=["J-off-the-plane", "C2-off-the-point", "J-in-I-cofactor"])
    def test_broken_certificate_leaves_the_literal_chain_unknown(
            self, monkeypatch, field, builder, mutate, line):
        real = getattr(verifier, builder)

        def mutated(field=QQ):
            built = real(field)
            ideal = getattr(built, "defining", built)
            ideal = Ideal(mutate(*ideal.generators), ideal.order)
            return ideal if builder == "c1_alternate_ideal" else replace(built, defining=ideal)

        monkeypatch.setattr(verifier, builder, mutated)
        rep = cmd_takanori(field)
        assert rep.status == "unknown"
        assert rep.detail == (
            "a certificate does not hold, so the chain is undecided; see transcript")
        assert line in rep.transcript

    def test_unnegated_image_fails_the_repaired_chain(self, monkeypatch):
        def unnegated(field=QQ):
            return {**c1_to_c2_map(field), "u": build_C2(field).ambient.var("Y")}

        monkeypatch.setattr(verifier, "c1_to_c2_map", unnegated)
        rep = cmd_takanori_repaired()
        assert rep.status == "failed"
        assert "phi(I) = I2 as ideals: False" in rep.transcript

    def test_unnegated_image_misses_c2_generators(self):
        c2 = build_C2()
        images = {**c1_to_c2_map(), "u": c2.ambient.var("Y")}
        mapped = [g.substitute(images, target=c2.ambient)
                  for g in c1_alternate_ideal().generators]
        assert not ideals_equal(Ideal(mapped, GREVLEX), c2.defining)

    def test_wrong_sign_denominator_breaks_localization_identity(self):
        base = ring("x", "y")
        x, y = base.gens()
        t_wrong = x**2 * y + 1
        assert not (y * x**2 - (t_wrong + 1)).is_zero


class TestReportPlumbing:
    def test_report_json_schema(self):
        rep = cmd_samuel(2)
        d = json.loads(rep.to_json())
        assert set(d) == {"claim_id", "description", "status", "detail", "transcript", "seconds"}
        assert isinstance(d["transcript"], list)

    def test_payload_serializes(self):
        rep = cmd_degree_probe(n_max=1, box=1)
        d = json.loads(rep.to_json())
        assert "payload" in d and len(d["payload"]) == 8

    def test_summarize_tags(self):
        reports = [
            VerificationReport("a", "first", "verified"),
            VerificationReport("b", "second", "failed", detail="boom"),
            VerificationReport("c", "third", "unknown"),
        ]
        text = summarize(reports)
        assert "[PASS] a" in text and "[FAIL] b" in text and "[????] c" in text
        assert "3 checks: 1 verified, 1 failed, 1 unknown" in text

    def test_ok_property(self):
        assert VerificationReport("x", "", "unknown").ok
        assert not VerificationReport("x", "", "failed").ok


class TestCli:
    def test_exit_codes(self):
        assert run(["samuel", "--n", "2", "--quiet"]) == 0
        assert run(["localization", "--n", "3", "--quiet"]) == 0
        # the takanori subcommand includes the honest literal failure
        assert run(["takanori", "--quiet"]) == 1

    @pytest.mark.parametrize("command", ["localization", "main-identities"])
    def test_exponent_past_32_bits(self, capsys, command):
        # x^4294967297 divides exactly: the division kernel widens its
        # exponent fields past 32 bits
        assert run([command, "--n", "4294967297"]) == 0
        assert f"[PASS] {command}-n4294967297" in capsys.readouterr().out

    def test_fibers_with_lambdas(self, capsys):
        assert run(["fibers", "--n", "2", "--lambda", "1/2", "--lambda", "3"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] fibers-n2" in out

    def test_fibers_with_every_lambda_skipped(self, capsys):
        assert run(["fibers", "--n", "3", "--lambda", "1/2", "--field", "fp:2"]) == 0
        out = capsys.readouterr().out
        assert "[????] fibers-n3" in out and "no lambda is usable in GF(2)" in out
        assert "0 fibers match" not in out

    @pytest.mark.parametrize("value", ["1/0", "0/0", "half"])
    def test_bad_lambda_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["fibers", "--n", "2", "--lambda", value, "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --lambda: not a rational literal: {value!r}" in err

    def test_quiet_suppresses_summary(self, capsys):
        run(["samuel", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_json_output(self, tmp_path):
        path = tmp_path / "report.jsonl"
        assert run(["degree-probe", "--n", "1", "--box", "1", "--quiet", "--json", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["claim_id"] == "degree-probe"

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_json_path_is_usage_error(self, capsys, monkeypatch, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "r.jsonl"
        calls = _count_calls(monkeypatch, verifier, "cmd_samuel")
        with pytest.raises(SystemExit) as exc:
            run(["samuel", "--quiet", "--json", str(path)])
        assert exc.value.code == 2
        assert f"argument --json: cannot write {str(path)!r}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_failed_report_write_is_exit_2(self, capsys):
        # /dev/full opens for writing, so the trial open passes, and every
        # write to it fails with ENOSPC
        assert run(["localization", "--quiet", "--json", "/dev/full"]) == 2
        assert capsys.readouterr().err.startswith("affmod: cannot write '/dev/full': ")

    def test_json_path_left_alone_on_later_usage_error(self, tmp_path):
        new = tmp_path / "new.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["samuel", "--json", str(new), "--n", "0"])
        assert exc.value.code == 2 and not new.exists()
        old = tmp_path / "old.jsonl"
        old.write_text("kept\n")
        with pytest.raises(SystemExit):
            run(["samuel", "--json", str(old), "--n", "0"])
        assert old.read_text() == "kept\n"

    def test_field_flag(self):
        assert run(["samuel", "--n", "1", "--field", "fp:101", "--quiet"]) == 0

    def test_bad_field_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["samuel", "--field", "fp:4", "--quiet"])
        assert exc.value.code == 2
        assert "argument --field: bad field spec 'fp:4': not a prime: 4" in (
            capsys.readouterr().err)
        with pytest.raises(ValueError):
            field_from_spec("fp:4")

    @pytest.mark.parametrize("spec", ["fp:abc", "foo", "fp:1", "fp:2305843009213693953"])
    def test_bad_field_spec_is_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as exc:
            run(["localization", "--field", spec, "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: affmod localization") and spec in err

    def test_bad_field_env_default_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(FIELD_ENV_VAR, "fp:4")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["localization"])
        assert exc.value.code == 2
        assert "not a prime: 4" in capsys.readouterr().err
        # an explicit --field overrides the bad default
        assert build_parser().parse_args(["localization", "--field", "fp:5"]).field == (
            PrimeField(5))

    def test_field_env_default(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENV_VAR, "fp:101")
        assert run(["localization", "--n", "1", "--quiet"]) == 0

    def test_lambda_of_any_length(self, capsys):
        assert run(["fibers", "--n", "2", "--lambda", "1" * 5000]) == 0
        assert "[PASS] fibers-n2" in capsys.readouterr().out

    @pytest.mark.parametrize("text, value", [
        ("1.5", Fraction(3, 2)), ("-3/4", Fraction(-3, 4)), ("1e3", Fraction(1000)),
        ("-" + "1" * 5000 + "/" + "3" * 4999, -Fraction(10**5000 // 9, 10**4999 // 3)),
        ("2" * 4400 + ".5e-3", Fraction(int(Decimal("2" * 4400 + "5")), 10**4)),
        ("1e-" + "0" * 5000 + "3", Fraction(1, 1000)),
    ], ids=["decimal", "fraction", "exponent", "long-fraction", "long-decimal",
            "long-exponent"])
    def test_rational_literals(self, text, value):
        assert verifier.rational(text) == value

    @given(st.text(alphabet="0123456789 _./-+eE", max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_rational_reads_what_fraction_reads(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            got = verifier.rational(text)
        except ArgumentTypeError:
            got = None
        assert got == expected

    @pytest.mark.parametrize("text", ["1e100000000", "-1e-100000000", "1.5e1000001",
                                      "1e" + "9" * 5000], ids=["e8", "e-8", "e6+1", "e5000digits"])
    def test_lambda_exponent_past_a_million_is_usage_error(self, capsys, text):
        # 1e100000000 alone would be a value of 10^8 digits
        with pytest.raises(SystemExit) as exc:
            run(["fibers", "--n", "2", f"--lambda={text}", "--quiet"])
        assert exc.value.code == 2
        assert (f"argument --lambda: exponent beyond 10^6 in magnitude: {text!r}"
                in capsys.readouterr().err)

    def test_lambda_exponent_of_a_million_reads(self):
        assert verifier.rational("1e1000000") == 10**10**6
        assert verifier.rational("-1e-1000000") == Fraction(-1, 10**10**6)
        assert verifier.rational("0.5e1000000") == 5 * 10**999999

    def test_rejects_bad_lambda(self, capsys):
        with pytest.raises(SystemExit):
            run(["fibers", "--lambda", "pi", "--quiet"])

    @pytest.mark.parametrize(
        "command, flag",
        [(c.name, p.flag) for c in CHECKS.values() for p in c.params
         if p.flag in ("--n", "--box")],
    )
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_rejects_non_positive_sizes(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value, "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: affmod {command}") and f"argument {flag}" in err


SRC = Path(__file__).resolve().parents[1] / "src"
ALL_CLAIM_IDS = sorted(
    [f"{f}-n{n}" for f in ("fibers", "samuel", "localization") for n in range(1, 6)]
    + [f"main-identities-n{n}" for n in range(2, 6)]
    + ["isomorphism-chain", "isomorphism-chain-repaired", "degree-probe"]
)


@pytest.mark.parametrize("spec", ["rational", "fp:101", "fp:3", "fp:2"])
def test_all_entry_point_smoke(tmp_path, spec):
    """`python -m affmod.cli all --json PATH` in a fresh interpreter: every
    claim reported, only the deliberate red failed, every other claim
    verified (characteristic 2 and 3 included), no traceback."""
    path = tmp_path / "report.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "affmod.cli", "all", "--field", spec, "--json", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    reports = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["claim_id"] for r in reports] == ALL_CLAIM_IDS
    assert [r["claim_id"] for r in reports if r["status"] == "failed"] == [
        "isomorphism-chain"
    ]
    assert Counter(r["status"] for r in reports) == {"verified": 21, "failed": 1}


def test_run_all_golden():
    """Every report of run_all over QQ, GF(7) and GF(2), byte for byte as
    JSON lines without the timing, in claim-id order.  A refactor that
    keeps the reports keeps this hash."""
    digest = hashlib.sha256()
    for field in (QQ, PrimeField(7), PrimeField(2)):
        for report in run_all(field):
            d = report.to_dict()
            del d["seconds"]
            digest.update((json.dumps(d) + "\n").encode())
    assert digest.hexdigest() == (
        "90156752aa714893a183d15fff3fd924c8227992006dca86adbcb69557c86825")
