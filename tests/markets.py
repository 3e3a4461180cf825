"""The calibrated markets the suite solves against, each as the `market`
block of a CLI config; `market.market_from_config` builds its MarketModel.

- EXAMPLE1: one risky asset, r = 0.06, mu = 0.12, sigma = 0.15, T = 1.
- EXAMPLE2: three risky assets, T = 1, r = 0.016 backed out of the quoted
  market price of risk.
- STRESS: one risky asset with Sharpe ratio 2.9 (r = 0.02, mu = 0.6,
  sigma = 0.2, so nu0 = 2.9), where a 2-D Newton on the multipliers stalls.
- TWO_SEGMENT: two risky assets over T = 2 with one coefficient breakpoint
  at t = 0.7, the golden digests' time-dependent market.

Tests read these blocks and must not mutate them.
"""

EXAMPLE1 = {
    "horizon": 1.0,
    "segments": [{"t_start": 0.0, "r": 0.06, "mu": [0.12], "sigma": [[0.15]]}],
}
EXAMPLE2 = {
    "horizon": 1.0,
    "segments": [
        {
            "t_start": 0.0,
            "r": 0.016,
            "mu": [0.1346, 0.0530, 0.1722],
            "sigma": [
                [0.1428, 0.0094, 0.1002],
                [0.0094, 0.0728, 0.0031],
                [0.1002, 0.0031, 0.2353],
            ],
        }
    ],
}
STRESS = {
    "horizon": 1.0,
    "segments": [{"t_start": 0.0, "r": 0.02, "mu": [0.6], "sigma": [[0.2]]}],
}
TWO_SEGMENT = {
    "horizon": 2.0,
    "segments": [
        {"t_start": 0.0, "r": 0.03, "mu": [0.08, 0.11], "sigma": [[0.2, 0.0], [0.05, 0.25]]},
        {"t_start": 0.7, "r": 0.05, "mu": [0.1, 0.09], "sigma": [[0.15, 0.02], [0.0, 0.3]]},
    ],
}
