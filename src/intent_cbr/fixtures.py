"""Bundled demo corpus: a keylogging investigation and eleven botnet precedents.

The keylogging attack carries five evidence items (registry abuse, two
implemented functions, the W32/Agobot tool and its recon commands). Each
bundled precedent copies a subset of those items (same kind and
attributes, so the local similarity on the copy is exactly 1.0) plus
filler evidence whose kinds never occur in the keylogging set. The copy
weights sum to a fixed reference score per precedent, so retrieval of
the keylogging case reproduces the reference ranking exactly. The
regression tests and the demos in ``demos/`` both lean on this.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .model import Attack, Case, CaseStatus, CausalNetwork, Evidence, EvidenceKind, Intention
from .repository import Repository
from .serialize import attack_to_dict, canonical_dumps, network_to_dict

FIXTURE_TIMESTAMP = "2024-01-01T00:00:00Z"

KEYLOGGING_ATTACK_ID = "keylogging"

# The five keylogging evidence items: (id, kind, attributes, description,
# confidence). Confidences sum to 4.0 so the normalized weights terminate
# as short decimals.
_KEYLOGGING_EVIDENCE: tuple[tuple[str, EvidenceKind, dict[str, str], str, float], ...] = (
    (
        "ev01",
        EvidenceKind.REGISTRY_ACCESS,
        {"target": "windows-registry", "access": "read-invalid-entries"},
        "Exploits the windows registry and reads invalid registry entries from the victim's device.",
        0.90,
    ),
    (
        "ev02",
        EvidenceKind.FUNCTION_IMPLEMENTATION,
        {"feature": "weedfind"},
        "Implements a weedfind feature that can be used for information retrieval.",
        0.75,
    ),
    (
        "ev03",
        EvidenceKind.FUNCTION_IMPLEMENTATION,
        {"recovers": "owner-company"},
        "Implements several functions to recover the compromised machine's registered owner and company.",
        0.85,
    ),
    (
        "ev04",
        EvidenceKind.TOOL_USAGE,
        {"tool": "W32/Agobot"},
        "Using W32/Agobot.",
        0.95,
    ),
    (
        "ev05",
        EvidenceKind.COMMAND_USAGE,
        {"commands": "sysinfo,netinfo"},
        "Using commands such as sysinfo and netinfo.",
        0.55,
    ),
)

# Raw kind strings used in the CSV rendition, exercising the alias table.
_CSV_KINDS = {
    "ev01": "registry",
    "ev02": "function",
    "ev03": "function",
    "ev04": "tool",
    "ev05": "command",
}

BOTNET_INTENTIONS: tuple[Intention, ...] = (
    Intention("int-01", "To collect all kinds of information for his nefarious purposes.", "botnet"),
    Intention("int-02", "To be employed to spy on the users of the compromised machines (spying).", "botnet"),
    Intention(
        "int-03",
        "To observe everything the victim is doing, key logging, stealing secret data "
        "or to reveal very sensitive information on the victim.",
        "botnet",
    ),
    Intention(
        "int-04",
        "To gain financial advantages (installing advertisement add-ons and Browser Helper Objects).",
        "botnet",
    ),
    Intention("int-05", "To grab e-mail addresses or other contact information from the compromised machine.", "botnet"),
    Intention(
        "int-06",
        "To steal CD-keys from the victim's hard disk or any software that has been legally purchased.",
        "botnet",
    ),
    Intention(
        "int-07",
        "To get an overview of the hardware configuration or retrieve information about "
        "the victim's host (CPU speed, uptime, IP address).",
        "botnet",
    ),
    Intention("int-08", "To sell or rent the bots to others.", "botnet"),
    Intention(
        "int-09",
        "To spread further, usually by automatically scanning whole network ranges and "
        "propagating via vulnerabilities.",
        "botnet",
    ),
    Intention("int-10", "To search the hard drive of all victims for sensitive files based on a regular expression.", "botnet"),
    Intention("int-11", "To spread new malware.", "botnet"),
)

# Filler evidence per precedent: kinds disjoint from the keylogging kinds,
# so they are never matched against the keylogging case.
_FILLERS: dict[str, tuple[tuple[EvidenceKind, dict[str, str], str], ...]] = {
    "port": (
        (EvidenceKind.PORT_EXPLOIT, {"port": "6667"}, "Listens on the IRC control port."),
    ),
    "protocol": (
        (EvidenceKind.PROTOCOL_INDICATOR, {"protocol": "irc"}, "Command traffic over IRC."),
    ),
    "vuln": (
        (
            EvidenceKind.VULNERABILITY_INDICATOR,
            {"service": "rpc-dcom"},
            "Targets an unpatched RPC service.",
        ),
    ),
    "address": (
        (
            EvidenceKind.ADDRESS_INDICATOR,
            {"destination": "c2.example.net"},
            "Outbound connections to a known control host.",
        ),
    ),
    "other": ((EvidenceKind.OTHER, {}, "Unattributed staging artifact."),),
}

# Per precedent: id, intention row, matched keylogging evidence weights,
# filler weights. Matched weights sum to the precedent's reference score;
# all weights together sum to 1.
_PRECEDENTS: tuple[tuple[str, int, dict[str, float], tuple[tuple[str, float], ...]], ...] = (
    ("botnet-01", 1, {"ev01": 0.25, "ev02": 0.20, "ev03": 0.20, "ev05": 0.20}, (("port", 0.15),)),
    ("botnet-02", 2, {"ev01": 0.29, "ev03": 0.25, "ev04": 0.25}, (("protocol", 0.21),)),
    (
        "botnet-03",
        3,
        {"ev01": 0.19, "ev02": 0.18, "ev03": 0.18, "ev04": 0.18, "ev05": 0.18},
        (("vuln", 0.09),),
    ),
    ("botnet-04", 4, {"ev02": 0.24, "ev04": 0.22, "ev05": 0.22}, (("address", 0.32),)),
    ("botnet-05", 5, {"ev02": 0.34, "ev03": 0.30}, (("address", 0.20), ("other", 0.16))),
    ("botnet-06", 6, {"ev01": 0.32, "ev02": 0.30}, (("port", 0.22), ("protocol", 0.16))),
    ("botnet-07", 7, {"ev03": 0.37, "ev05": 0.30}, (("address", 0.33),)),
    ("botnet-08", 8, {"ev04": 0.28, "ev05": 0.25}, (("protocol", 0.27), ("address", 0.20))),
    ("botnet-09", 9, {"ev01": 0.23, "ev04": 0.20}, (("vuln", 0.35), ("port", 0.22))),
    ("botnet-10", 10, {"ev02": 0.25, "ev03": 0.24, "ev05": 0.22}, (("other", 0.29),)),
    ("botnet-11", 11, {"ev04": 0.20, "ev05": 0.18}, (("vuln", 0.40), ("port", 0.22))),
)

# (case_id, score) in expected ranking order for the keylogging case.
REFERENCE_RANKING: tuple[tuple[str, float], ...] = (
    ("botnet-03", 0.91),
    ("botnet-01", 0.85),
    ("botnet-02", 0.79),
    ("botnet-10", 0.71),
    ("botnet-04", 0.68),
    ("botnet-07", 0.67),
    ("botnet-05", 0.64),
    ("botnet-06", 0.62),
    ("botnet-08", 0.53),
    ("botnet-09", 0.43),
    ("botnet-11", 0.38),
)


def keylogging_attack() -> Attack:
    """The keylogging investigation with its five evidence items."""
    return Attack(
        id=KEYLOGGING_ATTACK_ID,
        name="Keylogging",
        detection_state=0.9,
        evidence=tuple(
            Evidence(id=eid, kind=kind, attributes=dict(attrs), description=desc, confidence=conf)
            for eid, kind, attrs, desc, conf in _KEYLOGGING_EVIDENCE
        ),
    )


def write_keylogging_csv(path) -> Path:
    """Write the keylogging evidence as an ingestable CSV file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "kind", "description", "confidence", "attr1", "attr2"])
        for eid, _, attrs, desc, conf in _KEYLOGGING_EVIDENCE:
            cells = [f"{key}={value}" for key, value in attrs.items()]
            cells += [""] * (2 - len(cells))
            writer.writerow([eid, _CSV_KINDS[eid], desc, f"{conf:g}"] + cells)
    return path


def write_keylogging_json(path) -> Path:
    """Write the keylogging attack as an ingestable JSON document."""
    path = Path(path)
    path.write_text(canonical_dumps(attack_to_dict(keylogging_attack())), encoding="utf-8")
    return path


def precedent_cases() -> tuple[Case, ...]:
    """The eleven confirmed botnet precedents."""
    keylog = {entry[0]: entry for entry in _KEYLOGGING_EVIDENCE}
    cases: list[Case] = []
    for case_id, row, matched, fillers in _PRECEDENTS:
        evidence: list[Evidence] = []
        weights: dict[str, float] = {}
        for src_id, weight in matched.items():
            _, kind, attrs, desc, _ = keylog[src_id]
            ev_id = f"{case_id}-{src_id}"
            evidence.append(
                Evidence(
                    id=ev_id,
                    kind=kind,
                    attributes=dict(attrs),
                    description=desc,
                    confidence=0.9,
                )
            )
            weights[ev_id] = weight
        for index, (filler_key, weight) in enumerate(fillers, start=1):
            kind, attrs, desc = _FILLERS[filler_key][0]
            ev_id = f"{case_id}-x{index:02d}"
            evidence.append(
                Evidence(
                    id=ev_id,
                    kind=kind,
                    attributes=dict(attrs),
                    description=desc,
                    confidence=0.75,
                )
            )
            weights[ev_id] = weight
        intention = BOTNET_INTENTIONS[row - 1]
        cases.append(
            Case(
                case_id=case_id,
                attack=Attack(
                    id=f"attack-{case_id}",
                    name=f"Botnet incident {case_id}",
                    detection_state=0.9,
                    evidence=tuple(evidence),
                ),
                intention=intention,
                evidence_weights=weights,
                status=CaseStatus.PRECEDENT,
                provenance="analyst",
                created_at=FIXTURE_TIMESTAMP,
            )
        )
    return tuple(cases)


def install_demo_repository(root) -> Repository:
    """Create a repository at `root` seeded with the eleven precedents."""
    repo = Repository.open(root)
    for case in precedent_cases():
        repo.add_case(case)
    return repo


def demo_network() -> CausalNetwork:
    """Small two-intention causal network for the standalone estimator."""
    intentions = (
        Intention("int-exfil", "To exfiltrate sensitive data from the host.", "demo"),
        Intention("int-recon", "To map the host and its network neighborhood.", "demo"),
    )
    return CausalNetwork(
        attack_id="demo-attack",
        intentions=intentions,
        evidence_ids=("dev01", "dev02"),
        priors={"int-exfil": 0.5, "int-recon": 0.5},
        likelihoods={
            "dev01": {"int-exfil": 0.8, "int-recon": 0.4},
            "dev02": {"int-exfil": 0.7, "int-recon": 0.5},
        },
    )


def demo_attack() -> Attack:
    """Attack matching :func:`demo_network`."""
    return Attack(
        id="demo-attack",
        name="Demo exfiltration incident",
        detection_state=0.9,
        evidence=(
            Evidence(
                id="dev01",
                kind=EvidenceKind.COMMAND_USAGE,
                attributes={"commands": "tar,scp"},
                description="Archive and copy commands observed on the host.",
                confidence=0.9,
            ),
            Evidence(
                id="dev02",
                kind=EvidenceKind.ADDRESS_INDICATOR,
                attributes={"destination": "exfil.example.net"},
                description="Repeated transfers to one external address.",
                confidence=0.8,
            ),
        ),
    )


def write_demo_network(path) -> Path:
    path = Path(path)
    path.write_text(canonical_dumps(network_to_dict(demo_network())), encoding="utf-8")
    return path


def write_demo_attack(path) -> Path:
    path = Path(path)
    path.write_text(canonical_dumps(attack_to_dict(demo_attack())), encoding="utf-8")
    return path
