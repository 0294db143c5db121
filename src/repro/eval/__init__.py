"""Evaluation harness: the trial runner and one driver per experiment.

Experiment drivers (each regenerates one paper artifact):

- :mod:`repro.eval.matrix` — Table 1 (censored-protocol matrix);
- :mod:`repro.eval.table2` — Table 2 (strategy success rates);
- :mod:`repro.eval.waterfall` — Figures 1 and 2 (packet waterfalls);
- :mod:`repro.eval.multibox` — Figure 3 / §6 (multi-box evidence and
  TTL localization);
- :mod:`repro.eval.generalization` — §3 (client-side strategies do not
  generalize);
- :mod:`repro.eval.dns_retries` — §4 (RFC 7766 retry amplification);
- :mod:`repro.eval.followups` — §5 (instrumented causal probes);
- :mod:`repro.eval.residual` — §4.2 (residual censorship);
- :mod:`repro.eval.client_compat` — §7 (OS and network compatibility);
- :mod:`repro.eval.sni_matrix` — the post-paper SNI-era grid
  (TLS-metadata censors vs record-level server-side strategies).
"""

from ..censors.registry import benign_workload, censored_workload, default_port
from .runner import (
    CLIENT_IP,
    COUNTRY_PROTOCOLS,
    DEFAULT_CENSOR_HOP,
    DEFAULT_SERVER_HOP,
    SERVER_IP,
    Trial,
    TrialResult,
    run_trial,
    success_rate,
)

__all__ = [
    "CLIENT_IP",
    "COUNTRY_PROTOCOLS",
    "DEFAULT_CENSOR_HOP",
    "DEFAULT_SERVER_HOP",
    "SERVER_IP",
    "Trial",
    "TrialResult",
    "benign_workload",
    "censored_workload",
    "default_port",
    "run_trial",
    "success_rate",
]
