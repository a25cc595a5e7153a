"""Workload configs, generated from a seed, and the known answer of every check.

Each generator returns a full `bapkit run` config.  The seed goes into the
config's `seed` field, which drives every sampled check; the shapes stay
fixed so that runs at different seeds do the same amount of work.
"""

from __future__ import annotations


def _rho_third_table() -> dict:
    """rho(mu, nu) = 3**-mu on a 5 x 6 grid, in the encoding that
    `bapkit.jsonio.encode(RhoTable.from_grid(...))` produces."""
    return {
        "kind": "rho",
        "table_kind": "table",
        "values": [
            [mu, nu, {"num": 1, "den": 3**mu}] for mu in range(1, 6) for nu in range(1, 7)
        ],
        "mu_limit": 5,
        "nu_limit": 6,
    }


def vogt_exact(seed: int) -> dict:
    return {
        "suite": "vogt",
        "mode": "rational",
        "seed": seed,
        "vogt": {"rho": "dyadic", "n_max": 8, "mu_max": 4, "nu_max": 6, "level_count": 4},
    }


def schedule_exact(seed: int) -> dict:
    return {
        "suite": "pelczynski",
        "mode": "rational",
        "seed": seed,
        "pelczynski": {"dimension": 10},
    }


def mixed_float(seed: int) -> dict:
    return {
        "suite": "all",
        "mode": "float",
        "seed": seed,
        "vogt": {
            "rho": _rho_third_table(),
            "n_max": 10,
            "mu_max": 5,
            "nu_max": 6,
            "level_count": 4,
        },
        "pelczynski": {"dimension": 10},
        "normability": {"dimension": 12, "families": 500},
    }


CONFIGS = {
    "vogt-exact": vogt_exact,
    "schedule-exact": schedule_exact,
    "mixed-float": mixed_float,
}

_VOGT_CHECKS = (
    "vogt/comparison-inequality",
    "vogt/nuclearity-level-1",
    "vogt/nuclearity-level-2",
    "vogt/norm-positivity",
    "vogt/failure-witness",
    "vogt/injective-extension",
)
_PELCZYNSKI_CHECKS = (
    "pelczynski/schedule",
    "pelczynski/equicontinuity",
    "pelczynski/reconstruction",
    "pelczynski/basis-criterion",
    "pelczynski/projection-idempotent",
)
_NORMABILITY_CHECKS = (
    "normability/witness-violation",
    "normability/clean-system-consistent",
    "normability/sup-norm-upgrade",
)

# Every check states a theorem, so the known answer of each is a pass.
KNOWN_ANSWERS = {
    "vogt-exact": dict.fromkeys(_VOGT_CHECKS, True),
    "schedule-exact": dict.fromkeys(_PELCZYNSKI_CHECKS, True),
    "mixed-float": dict.fromkeys(_VOGT_CHECKS + _PELCZYNSKI_CHECKS + _NORMABILITY_CHECKS, True),
}

# Checks that bapkit is known to get wrong on a workload.  A mismatch on
# one of these still counts as a failed check; it only keeps the run's
# `correct` flag, which marks unexpected output, from turning false.
KNOWN_DEFECTS = {
    "mixed-float": {
        "vogt/norm-positivity": (
            "float q-certificate: 1/(1/243) = 242.99999999999997, so q = 243 "
            "and q*rho > 1 is false for rho = 3**-5"
        ),
    },
}
