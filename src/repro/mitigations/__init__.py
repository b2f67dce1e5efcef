"""Mitigations: the paper's Section 9 defense arm, as composable policies.

One spec object, :class:`MitigationPolicy` (:mod:`~repro.mitigations.policy`),
composes the paper's countermeasures into a frozen, name-registered
stack that ``AttackConfig(mitigation=...)`` threads through the whole
pipeline:

* **Access control** (Section 9.2) — RBAC ioctl whitelisting and
  local-only counter views, enforced by the :class:`PolicyEnforcer` the
  KGSL device file consults on every counter ioctl;
* **Value obfuscation** (Section 9.3) — rate limiting, quantization and a
  noise walk in the same enforcer's value pipeline;
* **Popup rendering changes** (:mod:`~repro.mitigations.popup_disable`,
  Section 9.1) — victim-side keyboard configuration changes.

OS-injected noise workloads (:mod:`~repro.mitigations.obfuscation`,
Section 9.3) perturb the victim timeline instead, and stay a separate
mechanism.  See ``docs/defenses.md`` for the handbook and the threat ×
mitigation matrix.
"""

from repro.mitigations.obfuscation import OsNoiseInjector, with_os_noise
from repro.mitigations.policy import (
    DEFAULT_PRIVILEGED_CONTEXTS,
    MITIGATION_ENV,
    MITIGATION_REGISTRY,
    MitigationPolicy,
    MitigationStats,
    PolicyEnforcer,
    compose,
    mitigation,
    mitigation_names,
    register_mitigation,
)
from repro.mitigations.popup_disable import (
    config_with_popups_disabled,
    disable_popups,
)

__all__ = [
    # composable policy spec (docs/defenses.md)
    "MitigationPolicy",
    "MitigationStats",
    "PolicyEnforcer",
    "MITIGATION_ENV",
    "MITIGATION_REGISTRY",
    "compose",
    "mitigation",
    "mitigation_names",
    "register_mitigation",
    "DEFAULT_PRIVILEGED_CONTEXTS",
    # OS-injected noise workloads (Section 9.3)
    "OsNoiseInjector",
    "with_os_noise",
    # popup rendering changes (Section 9.1)
    "disable_popups",
    "config_with_popups_disabled",
]
