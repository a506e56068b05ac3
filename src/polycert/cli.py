"""Command-line interface: generate instances, prove, verify, experiment.

Exit codes are the machine contract: 0 = accepted, 1 = rejected,
2 = usage or parameter error.  Stdout is for humans.
"""

from __future__ import annotations

import json
import os
import random
import sys

import click

from .experiments import (
    PROVER_SPECS,
    SOUNDNESS_PROTOCOLS,
    AssemblyError,
    assemble_public_inputs,
    run_completeness_experiment,
    run_soundness_experiment,
)
from .ff import DEFAULT_MODULUS, PrimeField
from .instances import (
    planted_member,
    planted_rank,
    rand_polymat,
)
from .oracles import hermite_h
from .protocols import ProverGaveUp, run_protocol, verify_transcript, PROTOCOL_IDS
from .transcript import (
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    DigestMismatchError,
    PolyMatrixPayload,
    PolyVectorPayload,
    ProtocolParams,
    Transcript,
    TranscriptError,
    payload_from_json,
    payload_to_json,
)

INSTANCE_FORMAT = "polycert-instance/v1"


@click.group()
def main():
    """Interactive certificates for polynomial matrix computations."""


def _load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and an integer past Python's
        # digit limit; RecursionError nesting past the recursion limit
        raise click.UsageError(f"cannot read instance file: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != INSTANCE_FORMAT:
        raise click.UsageError("not a polycert instance file")
    try:
        field = PrimeField(int(doc["p"]))
        objects = {name: payload_from_json(payload_doc).value_in(field)
                   for name, payload_doc in doc.get("objects", {}).items()}
    except KeyError as exc:
        raise click.UsageError(f"malformed instance file: missing key {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        # ValueError covers a non-prime modulus and TranscriptError
        raise click.UsageError(f"malformed instance file: {exc}")
    return field, doc, objects


@main.command()
@click.option("--kind", type=click.Choice(
    ["random", "planted-rank", "planted-membership", "planted-normal-form"]),
    default="random", show_default=True)
@click.option("--m", "m", type=int, default=4, show_default=True)
@click.option("--n", "n", type=int, default=4, show_default=True)
@click.option("--d", "d", type=int, default=2, show_default=True)
@click.option("--r", "r", type=int, default=None, help="planted rank")
@click.option("--modulus", "p", type=int, default=DEFAULT_MODULUS, show_default=True,
              help="prime field modulus")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(kind, m, n, d, r, p, seed, out):
    """Generate a seeded instance file with its ground-truth witness."""
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if m < 1 or n < 1 or d < 0:
        raise click.UsageError("need m, n >= 1 and d >= 0")
    rng = random.Random(seed)
    objects = {}
    witness = {}
    if kind == "random":
        a = rand_polymat(rng, field, m, n, d)
        # B is n x n: composable with A both as A.B and as a same-width matrix
        b = rand_polymat(rng, field, n, n, d)
        objects = {"A": PolyMatrixPayload.of(a), "B": PolyMatrixPayload.of(b)}
    elif kind == "planted-rank":
        if r is None or not 0 <= r <= min(m, n):
            raise click.UsageError("planted-rank needs --r in [0, min(m, n)]")
        a = planted_rank(rng, field, m, n, r, d)
        objects = {"A": PolyMatrixPayload.of(a)}
        witness = {"rank": r}
    elif kind == "planted-membership":
        a, v, q = planted_member(rng, field, m, n, d)
        objects = {"A": PolyMatrixPayload.of(a), "v": PolyVectorPayload.of(v)}
        witness = {"combination": payload_to_json(PolyVectorPayload.of(q))}
    elif kind == "planted-normal-form":
        a = rand_polymat(rng, field, m, n, d)
        h = hermite_h(a)
        objects = {"A": PolyMatrixPayload.of(a), "H": PolyMatrixPayload.of(h)}
        witness = {"hermite_rows": h.m}
    doc = {
        "format": INSTANCE_FORMAT,
        "kind": kind,
        "p": str(p),
        "seed": seed,
        "m": m,
        "n": n,
        "d": d,
        "objects": {k: payload_to_json(v) for k, v in objects.items()},
        "witness": witness,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {kind} instance to {out}")


def _publics_for(protocol, objects):
    try:
        return assemble_public_inputs(protocol, objects)
    except AssemblyError as exc:
        raise click.UsageError(f"{protocol}: {exc}")


def _common_params(field, sigma, strict, mode, seed):
    if sigma is None:
        sigma = field.p
    if not 1 <= sigma <= field.p:
        raise click.UsageError("need 1 <= sigma <= p")
    return ProtocolParams(p=field.p, sigma=sigma, mode=mode, strict=strict,
                          seed=seed if mode == MODE_INTERACTIVE else None)


@main.command()
@click.option("--protocol", type=click.Choice(PROTOCOL_IDS), required=True)
@click.option("--instance", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--sigma", type=int, default=None, help="sample set size (default: p)")
@click.option("--strict/--permissive", default=True, show_default=True)
@click.option("--prover-seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def prove(protocol, instance, sigma, strict, prover_seed, out):
    """Produce a Fiat-Shamir transcript for a statement about an instance."""
    field, _, objects = _load_instance(instance)
    pub = _publics_for(protocol, objects)
    params = _common_params(field, sigma, strict, MODE_FIAT_SHAMIR, None)
    try:
        verdict, transcript = run_protocol(protocol, pub, params,
                                           prover_seed=prover_seed)
    except ProverGaveUp as exc:
        click.echo(f"prover gave up: {exc}", err=True)
        sys.exit(2)
    transcript.meta["prover_seed"] = prover_seed
    transcript.save(out)
    click.echo(
        f"{protocol}: {'ACCEPT' if verdict.accepted else 'REJECT'} "
        f"({verdict.reason.value}); {transcript.comm_field_elements()} field "
        f"elements communicated; transcript -> {out}"
    )
    sys.exit(0 if verdict.accepted else 1)


@main.command()
@click.argument("transcript_file", type=click.Path(exists=True, dir_okay=False))
def verify(transcript_file):
    """Re-verify a stored transcript: recompute challenges, re-run all checks."""
    try:
        transcript = Transcript.load(transcript_file)
    except DigestMismatchError as exc:
        click.echo(f"REJECT: digest mismatch ({exc})")
        sys.exit(1)
    except TranscriptError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    verdict = verify_transcript(transcript)
    click.echo(
        f"{transcript.protocol_id}: {'ACCEPT' if verdict.accepted else 'REJECT'}"
        + ("" if verdict.accepted else f" ({verdict.reason.value}: {verdict.detail})")
    )
    sys.exit(0 if verdict.accepted else 1)


@main.command()
@click.option("--protocol", type=click.Choice(PROTOCOL_IDS), required=True)
@click.option("--instance", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--mode", type=click.Choice([MODE_INTERACTIVE, MODE_FIAT_SHAMIR]),
              default=MODE_INTERACTIVE, show_default=True)
@click.option("--sigma", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True,
              help="verifier randomness seed")
@click.option("--strict/--permissive", default=True, show_default=True)
@click.option("--prover-seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="also save the transcript")
def run(protocol, instance, mode, sigma, seed, strict, prover_seed, out):
    """Run both parties in process and print the verdict and communication."""
    field, _, objects = _load_instance(instance)
    pub = _publics_for(protocol, objects)
    params = _common_params(field, sigma, strict, mode, seed)
    try:
        verdict, transcript = run_protocol(protocol, pub, params,
                                           prover_seed=prover_seed)
    except ProverGaveUp as exc:
        click.echo(f"prover gave up: {exc}", err=True)
        sys.exit(2)
    click.echo(f"{protocol}: {'ACCEPT' if verdict.accepted else 'REJECT'}"
               + ("" if verdict.accepted else f" ({verdict.reason.value})"))
    click.echo(f"communication: {transcript.comm_field_elements()} field elements")
    for key, count in sorted(transcript.comm_breakdown().items()):
        click.echo(f"  {key}: {count}")
    if "sigma_lower_bound" in transcript.meta:
        click.echo(f"advertised #S lower bound: {transcript.meta['sigma_lower_bound']} "
                   f"(sigma = {params.sigma})")
    if out:
        transcript.meta["prover_seed"] = prover_seed
        transcript.save(out)
        click.echo(f"transcript -> {out}")
    sys.exit(0 if verdict.accepted else 1)


@main.command()
@click.option("--suite", type=click.Choice(["completeness", "soundness", "acceptance"]),
              default=None)
@click.option("--protocol", type=str, default=None,
              help="single-protocol soundness experiment")
@click.option("--trials", type=int, default=None)
@click.option("--sigma", type=int, default=None,
              help="sample set size of a single-protocol experiment (default: 64)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--modulus", "p", type=int, default=DEFAULT_MODULUS, show_default=True,
              help="prime field modulus")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
def experiment(suite, protocol, trials, sigma, seed, p, out_dir):
    """Run completeness / soundness experiment suites and report pass/fail."""
    # --suite acceptance runs both lists
    completeness = PROTOCOL_IDS
    soundness = [(pid, sg) for pid in SOUNDNESS_PROTOCOLS for sg in (32, 64)]
    if suite is not None and (protocol is not None or sigma is not None):
        raise click.UsageError("--protocol and --sigma select a single-protocol "
                               "experiment; a --suite runs its own protocols and #S")
    if suite == "completeness":
        soundness = []
    elif suite == "soundness":
        completeness = []
    elif suite is None:
        if protocol is None:
            raise click.UsageError("give --suite or --protocol")
        cheatable = [pid for pid, spec in PROVER_SPECS.items()
                     if spec.false_instance is not None]
        if protocol not in cheatable:
            raise click.UsageError(
                f"soundness experiments exist for: {', '.join(cheatable)}")
        completeness, soundness = [], [(protocol, 64 if sigma is None else sigma)]
    # parameter errors are usage errors, found before any experiment runs
    least = 100 if soundness else 1  # run_soundness_experiment's minimum
    if trials is not None and trials < least:
        raise click.UsageError(f"need --trials >= {least}"
                               + (" for soundness experiments" if soundness else ""))
    try:
        PrimeField(p)
        for _, sg in soundness:
            ProtocolParams(p=p, sigma=sg, mode=MODE_INTERACTIVE)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    reports = [run_completeness_experiment(pid, trials=trials or 100, seed=seed, p=p)
               for pid in completeness]
    reports += [run_soundness_experiment(pid, trials=trials or 2000, sigma=sg,
                                         seed=seed, p=p)
                for pid, sg in soundness]
    failed = False
    for rep in reports:
        doc = rep.to_json_dict()
        status = "pass" if rep.passed else "FAIL"
        if doc["kind"] == "completeness":
            click.echo(f"[{status}] completeness {rep.protocol_id}: "
                       f"{rep.rejections} rejections / {rep.trials} trials")
        else:
            click.echo(f"[{status}] soundness {rep.protocol_id} (sigma={rep.sigma}): "
                       f"rate {rep.rate:.4f} <= bound {rep.bound:.4f} "
                       f"+ 3se {rep.tolerance:.4f}")
        failed = failed or not rep.passed
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            name = f"{doc['kind']}_{rep.protocol_id}"
            if doc["kind"] == "soundness":
                name += f"_s{rep.sigma}"
            with open(os.path.join(out_dir, name + ".json"), "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
