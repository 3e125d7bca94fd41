"""Sharded multi-group service: scale past one Paxos group.

One reconfigurable-SMR group tops out at a single leader's throughput,
so this package runs **N independent groups** side by side — each with
its own virtual log, epoch chain, and data directory — behind a
versioned :class:`~repro.shard.shardmap.ShardMap` that assigns key
ranges (in a stable hash space) to groups.

The pieces:

* :mod:`repro.shard.shardmap` — the map model: hash points, key ranges,
  assignments, and the pure map algebra (split / move / validate);
* :mod:`repro.shard.messages` — the shard wire payload (``WrongShard``
  redirects);
* :mod:`repro.shard.metadir` — the map authority, the director: the map
  version chain and the admin intents as a state machine replicated on
  a group of its own, whose replicas drive drain-and-cutover moves, and
  the handle through which everything else reads the map;
* :mod:`repro.shard.client` — the smart client: a sans-IO router that
  caches the map and follows redirects (so map changes propagate without
  a central hop), driven over per-group
  :class:`~repro.net.client.LiveClient`\\ s;
* :mod:`repro.shard.cluster` — :class:`ShardedCluster`, composing one
  :class:`~repro.net.cluster.LocalCluster` per group plus the director's;
* :mod:`repro.shard.storm` — the sharded cells of the one live scenario
  loop (``repro storm shard|director``): a split under load, verified
  with the Wing–Gong linearizability oracle across the cutover.

Reconfiguration stays a **per-shard** operation: adding/removing a
replica touches one group's epoch chain only, which is what makes the
shards independently elastic (the FRAPPE scenario from PAPERS.md).
"""
