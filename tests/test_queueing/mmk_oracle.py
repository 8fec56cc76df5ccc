"""Closed-form M/M/k results (Erlang C): the oracle for the simulators.

The paper notes traditional closed-form models diverge under short-term
allocation (the timeout couples queueing delay and service rate); these
formulas are exact only when the timeout never fires, which is exactly
how the tests use them.
"""

from __future__ import annotations

import math


def erlang_c(n_servers: int, offered_load: float) -> float:
    """Probability an arriving query waits (M/M/k).

    ``offered_load`` is a = lambda / mu; requires a < n_servers.
    """
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if not 0 <= offered_load < n_servers:
        raise ValueError(
            f"offered load {offered_load} must be in [0, n_servers={n_servers})"
        )
    if offered_load == 0:
        return 0.0
    a = offered_load
    k = n_servers
    rho = a / k
    top = a**k / (math.factorial(k) * (1 - rho))
    bottom = sum(a**i / math.factorial(i) for i in range(k)) + top
    return top / bottom


def mmk_mean_wait(arrival_rate: float, service_rate: float, n_servers: int) -> float:
    """Expected queueing delay E[W] for M/M/k."""
    a = arrival_rate / service_rate
    c = erlang_c(n_servers, a)
    return c / (n_servers * service_rate - arrival_rate)


def mmk_mean_response(
    arrival_rate: float, service_rate: float, n_servers: int
) -> float:
    """Expected response time E[T] = E[W] + 1/mu for M/M/k."""
    return mmk_mean_wait(arrival_rate, service_rate, n_servers) + 1.0 / service_rate


def ggk_mean_wait_approx(
    arrival_rate: float,
    service_rate: float,
    n_servers: int,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Allen-Cunneen approximation of E[W] for G/G/k.

    Scales the exact M/M/k wait by the squared coefficients of
    variation of inter-arrival (``ca2``) and service (``cs2``) times:

        E[W] ~= E[W_{M/M/k}] * (ca2 + cs2) / 2

    Exact for M/M/k; a standard engineering approximation otherwise
    (and exactly the kind of closed form that breaks once short-term
    allocation couples the service rate to queueing delay).
    """
    if ca2 < 0 or cs2 < 0:
        raise ValueError("squared CVs must be >= 0")
    return mmk_mean_wait(arrival_rate, service_rate, n_servers) * (ca2 + cs2) / 2.0


def ggk_mean_response_approx(
    arrival_rate: float,
    service_rate: float,
    n_servers: int,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Allen-Cunneen E[T] = E[W] + 1/mu for G/G/k."""
    return (
        ggk_mean_wait_approx(arrival_rate, service_rate, n_servers, ca2, cs2)
        + 1.0 / service_rate
    )
