"""A 10-digit PIN-pad scenario — the registry's extensibility proof.

Related work extends the popup side channel past qwerty text entry to
numeric PIN pads (activity/PIN inference via GPU profiling in AR/VR;
see PAPERS.md), and banking apps commonly gate re-login behind a PIN
screen.  This module registers that workload *entirely from outside the
core tables*: nothing in ``repro.android.keyboard`` or
``repro.android.apps`` knows the PIN pad exists, yet after import it is
addressable everywhere a built-in keyboard is — ``repro steal
--keyboard pinpad``, ``AttackConfig(scenario="pinpad")``, the scenario
smoke matrix.

The keyboard uses the ``"pinpad"`` layout kind: a 3-wide digit grid
(1-9 over three rows, 0 bottom-center, backspace bottom-right) with its
own popup geometry — wider popups risen further, as banking PIN pads
draw them.  Only ten key classes exist, so offline training sweeps ten
keys and the classifier separates ten clusters (versus 38 on qwerty);
measured accuracy lives in EXPERIMENTS.md next to the Table 2 band.
"""

from __future__ import annotations

from repro.android.keyboard import KeyboardSpec, register_keyboard
from repro.scenarios.spec import Scenario, register_scenario

register_keyboard(
    KeyboardSpec(
        name="pinpad",
        display_name="Banking PIN Pad",
        height_fraction=0.38,
        key_gap_fraction=0.18,
        popup_scale=1.30,
        popup_rise_fraction=1.25,
        popup_font_fraction=0.60,
        label_font_fraction=0.46,
        duplicate_popup_prob=0.0,
        popup_shadow=True,
        layout="pinpad",
    ),
    tags=("extension", "numeric"),
)

register_scenario(
    Scenario(
        name="pinpad",
        keyboard="pinpad",
        app="chase",
        charset="1234567890",
        description="10-digit banking PIN pad, digit-only credentials",
        tags=("extension", "pinpad"),
    )
)
