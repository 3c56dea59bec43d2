"""Domain-name syntax helpers.

Validation and normalization follow RFC 1035 preferred-name syntax with the
common operational relaxations (digits allowed anywhere, underscore allowed
in service labels). The paper aggregates hostnames to effective second-level
domains (e2LDs); :func:`registered_domain` performs that aggregation using
the public suffix list in :mod:`repro.dns.psl`.
"""

from __future__ import annotations

import string
from typing import TYPE_CHECKING

from repro.errors import DomainNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dns.psl import PublicSuffixList

_LABEL_CHARS = frozenset(string.ascii_lowercase + string.digits + "-_")
MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63


def normalize_domain(name: str) -> str:
    """Lower-case a domain name and strip the trailing root dot.

    Raises:
        DomainNameError: if the result is empty.
    """
    normalized = name.strip().lower().rstrip(".")
    if not normalized:
        raise DomainNameError(f"empty domain name: {name!r}")
    return normalized


def split_labels(name: str) -> list[str]:
    """Split a normalized domain name into its labels, left to right."""
    return normalize_domain(name).split(".")


def is_valid_domain_name(name: str) -> bool:
    """Check RFC 1035-style syntax (with operational relaxations).

    Rules enforced: total length <= 253; 1..63 chars per label; labels use
    [a-z0-9-_] only and do not begin or end with a hyphen; at least one
    label.
    """
    try:
        normalized = normalize_domain(name)
    except DomainNameError:
        return False
    if len(normalized) > MAX_NAME_LENGTH:
        return False
    for label in normalized.split("."):
        if not 1 <= len(label) <= MAX_LABEL_LENGTH:
            return False
        if not set(label) <= _LABEL_CHARS:
            return False
        if label.startswith("-") or label.endswith("-"):
            return False
    return True


def registered_domain(name: str, psl: PublicSuffixList | None = None) -> str:
    """Return the effective second-level domain (e2LD) of ``name``.

    The e2LD is the public suffix plus one label, e.g. ``maps.google.com``
    -> ``google.com`` and ``www.bbc.co.uk`` -> ``bbc.co.uk``. This is the
    aggregation unit used throughout the paper (pruning rule 3).

    Args:
        name: Any fully qualified domain name.
        psl: Optional :class:`~repro.dns.psl.PublicSuffixList`; defaults to
            the embedded snapshot.

    Raises:
        DomainNameError: if ``name`` is itself a bare public suffix (it has
            no registrable part).
    """
    from repro.dns.psl import default_psl

    if psl is None:
        psl = default_psl()
    return psl.registered_domain(name)
