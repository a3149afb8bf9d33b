"""Replica processes: boot, health-check and drain ChipServer replicas.

:mod:`repro.serve.fleet.replica` holds the one part:
:class:`ReplicaManager` provisions real
:class:`~repro.serve.distributed.ChipServer` OS processes from a picklable
:class:`~repro.serve.distributed.SessionSpec`, health-checks them via ping,
and retires them through the graceful ``drain`` wire op: the server stops
admitting work, finishes its queue, answers everything it owes, then exits
— no admitted request is ever failed by a drain.  Each replica's
pipelined client can join an
:class:`~repro.serve.distributed.InferenceGateway` as an endpoint.
"""

from repro.serve.fleet.replica import Replica, ReplicaManager, ReplicaSpec

__all__ = [
    "Replica",
    "ReplicaManager",
    "ReplicaSpec",
]
