"""Drifted copy carrying an explicit suppression on the reported line."""


def score(resp, expected, q_hat, exponent):  # repro: noqa(CON001) - deliberate fixture drift
    value = resp - expected + q_hat**exponent / expected
    return value
