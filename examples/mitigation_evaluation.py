#!/usr/bin/env python3
"""Mitigation shoot-out (paper Section 9).

Evaluates every defence the paper discusses against the same credential:

* baseline (no defence)
* key-press popups disabled (Section 9.1)
* SELinux/RBAC ioctl whitelisting (Section 9.2)
* local-only counter visibility (finer-grained RBAC, Section 9.2)
* login-screen animation à la PNC Mobile (Section 9.3)
* driver-level counter value obfuscation (Section 9.3)

Usage:
    python examples/mitigation_evaluation.py
"""

from repro.api import (
    MetricsRegistry,
    align,
    app,
    config_with_popups_disabled,
    default_config,
    mitigation,
    simulate_credential_entry,
    single_model_attack,
)

CREDENTIAL = "S3cur3&Sound"


def score(truth: str, inferred: str) -> str:
    alignment = align(truth, inferred)
    return f"{alignment.correct}/{len(truth)} chars ({inferred!r})"


def defended(config, target, trace, policy: str):
    """Attack ``trace`` with the named mitigation policy enforced at the
    KGSL device file; returns the result and its EACCES denial count."""
    metrics = MetricsRegistry()
    attack = single_model_attack(
        config, target, mitigation=mitigation(policy), metrics=metrics
    )
    result = attack.run_on_trace(trace, seed=90)
    return result, int(metrics.counter("mitigation.denials").value)


def main() -> None:
    config = default_config()
    chase = app("chase")

    print(f"credential under attack: {CREDENTIAL!r}\n")

    # --- baseline -------------------------------------------------------
    attack = single_model_attack(config, chase)
    trace = simulate_credential_entry(config, chase, CREDENTIAL, seed=9)
    baseline = attack.run_on_trace(trace, seed=90)
    print(f"no defence            : {score(CREDENTIAL, baseline.text)}")

    # --- popups disabled --------------------------------------------------
    nopopup_config = config_with_popups_disabled(config)
    nopopup_attack = single_model_attack(nopopup_config, chase)
    nopopup_trace = simulate_credential_entry(nopopup_config, chase, CREDENTIAL, seed=9)
    nopopup = nopopup_attack.run_on_trace(nopopup_trace, seed=90)
    leak = len(nopopup.text) + nopopup.online.stats.unattributed_growth
    print(
        f"popups disabled       : {score(CREDENTIAL, nopopup.text)} "
        f"— but length {leak} still leaks (Section 9.1)"
    )

    # --- RBAC / SELinux whitelist ---------------------------------------
    # EACCES permanently masks every counter: the attacking app survives
    # but samples nothing (see docs/defenses.md)
    rbac, denials = defended(config, chase, trace, "rbac")
    print(
        f"RBAC whitelist        : {score(CREDENTIAL, rbac.text)} "
        f"— blinded at ioctl ({denials} EACCES denials)"
    )

    # --- local-only counters ---------------------------------------------
    local, _ = defended(config, chase, trace, "local-only")
    print(f"local-only counters   : {score(CREDENTIAL, local.text)} — attacker sees no activity")

    # --- login animation (PNC) -------------------------------------------
    pnc_attack = single_model_attack(config, app("pnc"))
    pnc_trace = simulate_credential_entry(config, app("pnc"), CREDENTIAL, seed=9)
    pnc = pnc_attack.run_on_trace(pnc_trace, seed=90)
    print(f"login animation (PNC) : {score(CREDENTIAL, pnc.text)} — paper measured ~30%")

    # --- driver value obfuscation ----------------------------------------
    fuzzed, _ = defended(config, chase, trace, "obfuscate-strong")
    print(f"value obfuscation     : {score(CREDENTIAL, fuzzed.text)}")

    print(
        "\nConclusion (Section 9.2): access control at the counter interface"
        " is the only defence that stops the attack without breaking the"
        " popups users rely on."
    )


if __name__ == "__main__":
    main()
