"""Decentralized multi-vehicle survey planning around a critical isobath.

A team of autonomous surface vehicles maps the region of a lake deeper
than a critical level. Each vehicle keeps a Gaussian-process belief over
the depth field, plans informative paths with Monte Carlo tree search
against a Bayes-risk objective, coordinates sequentially with its
teammates through a bandwidth-limited acoustic broadcast channel, and
the whole mission runs on a deterministic event-driven simulator.
"""

__version__ = "0.1.0"
