"""Drifted copy: the anchored formula differs from the reference (CON001)."""


def score(resp, expected, q_hat, exponent):
    value = resp - expected + q_hat**exponent / expected  # drifted formula
    return value
