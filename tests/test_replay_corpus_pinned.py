"""Certificates, reliabilities and campaign records pinned byte for byte.

Every crash instant past 0 is answered by one verdict-only replay per
scenario (crash lanes answer instant 0).  The corpus below runs that
path end to end and pins the SHA-256 of what a user sees of it:

* the ``repro certify --boundaries --json`` document and the printed
  certificate and reliability lines, on generated ring, star, fully
  connected and bus problems and on ``examples/problem_ring4_npl1.json``
  (link-tolerant: combined processor+link subsets);
* the merged store of a small reliability campaign crashing at event
  boundaries, whose records carry the engine's ``scenarios``,
  ``simulated`` and ``lanes`` counts.

The digests were recorded before the replay lost its dirty-cone mode,
which copied the outcomes outside a scenario's cone from the nominal
run; the full replay must reach the same verdicts and counts.  The
batch-engine summary line is left out: its event-decision count is
the replays' own work and changes with the replay.
"""

import hashlib
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, WorkloadSpec, merge_stores, run_campaign
from repro.campaign.jobs import build_problem
from repro.campaign.spec import ReliabilitySpec
from repro.cli import main
from repro.schedule.serialization import problem_to_dict, save_json

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: ``(topology, processors, npf, seed)`` of the generated problems.
GENERATED = {
    "ring": ("ring", 5, 1, 3),
    "star": ("star", 5, 1, 3),
    "fully_connected": ("fully_connected", 5, 1, 2),
    "fully_connected-npf2": ("fully_connected", 6, 2, 1),
    "bus": ("single_bus", 5, 1, 2),
}

#: SHA-256 of (certificate document, printed certificate + reliability).
CERTIFY_DIGESTS = {
    "ring": (
        "52b023b61e6173d93bde035fb80d4f8605268fd2126cd4ea44d49c129b792590",
        "4361dba34784807dece5187f4dbfe909e3535ae4a2d2dc136a1b23ab61a99c9a",
    ),
    "star": (
        "c18d2ee83a2810c4980435bb25a40bc569470a17859fa3b31b5b33121d8a4ba6",
        "5828a59b02676861af0b90d1bacbb3961f5558d5cbd6d03e8b52f8a5da1f4a6c",
    ),
    "fully_connected": (
        "39554caa7a285bd87eb8e063ae01b0f25617f73d9415d4bdb04644eaaf812564",
        "50b1ef8a0bb85a8e57d010c32b7208c5d9d08eb72980a6121eb157a3a4bb6cc9",
    ),
    "fully_connected-npf2": (
        "8f333823b8b23f94bc0f4fd8200f0171dc116a109f925705559b5392fe4fbd6f",
        "caca278f3fc882880e15b23d4126dbe3af0727dc1a2ec53437d83a4db9fffafe",
    ),
    "bus": (
        "be5fa8e102e4047039d06b24dcd6f3a262f2afe592d9f6870f33817f6321d51c",
        "524cfe3522fbc9d747ec8424abf07a5cae9c31c2f17c028501b734c6b6395d71",
    ),
    "ring4_npl1": (
        "5ccacc691173d4a4a0c5237f62ccf9cddb39cbe9e939ecf937566f432fad93f0",
        "27645afacea2e059bbdb6e63721404e2503923cbfde702cee302d49e2d97ccf8",
    ),
}

#: SHA-256 of the canonically merged campaign store.
CAMPAIGN_DIGEST = (
    "c6495476c3291a1ca60a21931b7c1f331dcab753df149458766a421ece057681"
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def certify_digests(problem: Path, workdir: Path, capsys) -> tuple[str, str]:
    """Digests of one ``certify --boundaries`` run's document and output."""
    document = workdir / f"{problem.stem}.certificate.json"
    capsys.readouterr()
    main([
        "certify", str(problem), "--boundaries",
        "--probability", "0.05", "--probability", "0.2",
        "--json", str(document),
    ])
    printed = [
        line for line in capsys.readouterr().out.splitlines()
        if not line.startswith(("batch engine:", "certificate document"))
    ]
    return _sha(document.read_bytes()), _sha("\n".join(printed).encode())


def problem_file(name: str, workdir: Path) -> Path:
    if name == "ring4_npl1":
        return EXAMPLES / "problem_ring4_npl1.json"
    topology, processors, npf, seed = GENERATED[name]
    problem = build_problem(
        WorkloadSpec(family="random", size=20), topology, processors, npf,
        1.0, seed,
    )
    path = workdir / f"{name}.json"
    save_json(problem_to_dict(problem), path)
    return path


@pytest.mark.parametrize("name", [*GENERATED, "ring4_npl1"])
def test_certify_boundaries_pinned(name, tmp_path, capsys):
    digests = certify_digests(problem_file(name, tmp_path), tmp_path, capsys)
    assert digests == CERTIFY_DIGESTS[name]


def reliability_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="pinned-boundaries",
        workloads=(WorkloadSpec(family="random", size=10),),
        topologies=("fully_connected", "ring", "star"),
        processors=(4,),
        npfs=(1, 2),
        seeds=(0,),
        measures=("ftbar", "reliability"),
        reliability=ReliabilitySpec(
            probabilities=(0.05,), crash_times="boundaries", boundary_limit=6
        ),
    )


def test_boundary_campaign_store_pinned(tmp_path):
    store = tmp_path / "results.jsonl"
    report = run_campaign(reliability_campaign(), store=store)
    records = report.records_in_order()
    # The records carry the engine counts, and some job replayed.
    assert all(
        {"scenarios", "simulated", "lanes"} <= set(record["reliability"])
        for record in records
    )
    assert any(record["reliability"]["simulated"] for record in records)
    merged = tmp_path / "merged.jsonl"
    merge_stores([store], merged)
    assert _sha(merged.read_bytes()) == CAMPAIGN_DIGEST
