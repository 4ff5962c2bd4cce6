"""Verification toolkit for a monoid presented by quaternion permutation
relations: group construction, word problem by a certified rewriting
system, window-combinatorics oracles, subset-product sweeps, and F_p algebra
sampling."""

__version__ = "0.1.0"
