"""DNS substrate: record types, traffic log model, public-suffix handling.

This package models the slice of the DNS that the paper's measurement
pipeline touches: query/response records captured at campus edge routers,
DHCP leases for host identity, TTL semantics, and effective-second-level
domain (e2LD) extraction via the public suffix list.
"""

from repro.dns.types import (
    DhcpLease,
    DnsQuery,
    DnsResponse,
    QueryType,
    ResourceRecord,
)
from repro.dns.names import (
    is_valid_domain_name,
    normalize_domain,
    registered_domain,
    split_labels,
)
from repro.dns.psl import PublicSuffixList, default_psl
from repro.dns.logfmt import (
    DnsTraceReader,
    DnsTraceWriter,
    TraceColumns,
    format_query,
    format_response,
    parse_query,
    parse_response,
)
from repro.dns.dhcp import DhcpLog, HostIdentityResolver

__all__ = [
    "DhcpLease",
    "DhcpLog",
    "DnsQuery",
    "DnsResponse",
    "DnsTraceReader",
    "DnsTraceWriter",
    "HostIdentityResolver",
    "PublicSuffixList",
    "QueryType",
    "ResourceRecord",
    "TraceColumns",
    "default_psl",
    "format_query",
    "format_response",
    "is_valid_domain_name",
    "normalize_domain",
    "parse_query",
    "parse_response",
    "registered_domain",
    "split_labels",
]
