"""Online partitioning service: the paper's scheduler as a control plane.

Everything else in this repository is batch-shaped — a study executes a
fixed scenario list and exits.  This package lifts the LFOC/Dunn online
decision layer into a **long-lived multi-tenant service**:

* :mod:`repro.service.daemon` — ``repro.cli serve``: a single-threaded
  event loop (no thread races, deterministic and replayable — the same
  link server the TCP executor runs on) that accepts host
  agents, keeps per-host tenant state and pushes CAT mask updates;
* :mod:`repro.service.agent` — ``repro.cli agent``: the per-host client
  that registers applications, streams monitor samples and applies pushed
  masks, journaling every sent frame so a dropped link (or a daemon
  restart) is healed by replaying the unacknowledged suffix;
* :mod:`repro.service.session` — the transport-free core: per-host
  sessions whose monitors are rows of one shared growable
  :class:`~repro.runtime.monitor.MonitorBank` (each event-loop drain
  ingests every host's samples through a single fused ``observe_batch``
  call), fed through the incremental decision layer (fingerprint-keyed
  :class:`~repro.core.lfoc.LfocDecisionCache`, Dunn's LRU allocation
  cache) so re-deciding is O(changed apps);
* :mod:`repro.service.snapshot` — CRC-guarded, atomically-replaced
  snapshot files of the whole control plane, so ``serve --snapshot`` can
  restore after a crash and reconnecting agents resume mid-epoch;
* :mod:`repro.service.protocol` — the message schema (``host_hello``,
  ``app_arrive``, ``app_depart``, ``monitor_samples``, ``mask_update``,
  ``host_bye``, read-only ``metrics``) spoken over the safe wire codec
  under ``PROTOCOL_VERSION`` negotiation.  Since protocol v3 a payload's
  lists and str-keyed dicts are bare JSON, so a frame decodes in one
  ``json.loads``; :func:`~repro.service.protocol.check_frame` then checks
  a sample batch in one pass that allocates nothing per well-formed entry
  (exact-type tests first, isinstance tests behind them) and raises the
  precise error for the first bad entry;
* :mod:`repro.service.replay` — the append-only decision log plus the
  offline replay oracle that pins live daemon decisions bit-identical to
  a socket-free run on the same trace;
* :mod:`repro.service.simhost` — a profile-backed simulated host, so the
  whole control loop is testable offline.
"""

from repro.service.agent import HostAgent, run_agent
from repro.service.daemon import PartitionDaemon
from repro.service.protocol import SERVICE_KINDS, ServiceProtocolError
from repro.service.replay import MaskDecision, ReplayLog, offline_replay
from repro.service.session import BankIngest, HostSession, ServiceCore
from repro.service.simhost import SimulatedHost, churn_schedule, host_seed
from repro.service.snapshot import load_snapshot, save_snapshot

__all__ = [
    "HostAgent",
    "run_agent",
    "PartitionDaemon",
    "SERVICE_KINDS",
    "ServiceProtocolError",
    "MaskDecision",
    "ReplayLog",
    "offline_replay",
    "BankIngest",
    "HostSession",
    "ServiceCore",
    "SimulatedHost",
    "churn_schedule",
    "host_seed",
    "load_snapshot",
    "save_snapshot",
]
