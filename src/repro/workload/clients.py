"""Client pools: spin up N measured clients against a service.

The pool owns one :class:`repro.metrics.collectors.CompletionCollector`
shared by all its clients, which is what experiments read for
service-level throughput and latency.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.client import Client, ClientParams, OperationSource
from repro.metrics.collectors import CompletionCollector
from repro.workload.generators import KvOperationMix


class _ClientFactory(Protocol):
    def make_client(
        self, name: str, operations: OperationSource, params=None, on_complete=None
    ) -> Client: ...


class ClientPool:
    """N closed-loop clients sharing an operation mix and a collector."""

    def __init__(
        self,
        service: _ClientFactory,
        mix: KvOperationMix,
        count: int,
        ops_per_client: int | None,
        params: ClientParams | None = None,
        bin_width: float = 0.05,
    ):
        self.collector = CompletionCollector(bin_width=bin_width)
        self.clients: list[Client] = []
        for i in range(count):
            name = f"c{i}"
            client = service.make_client(
                name,
                mix.source(name, ops_per_client),
                params=params,
                on_complete=self.collector.on_complete,
            )
            self.clients.append(client)

    @property
    def all_finished(self) -> bool:
        return all(client.finished for client in self.clients)

    @property
    def completed_ops(self) -> int:
        return self.collector.count
