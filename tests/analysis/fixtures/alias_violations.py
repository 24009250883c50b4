"""Seeded I502 violations: parsed by the analysis tests, never executed."""

import repro
from repro.core.widgets import reconcile_widgets  # I502: imports an alias
from repro.core.widgets import encode_widget


def composite(alice, bob, seed):
    first = reconcile_widgets(alice, bob, seed)  # I502: calls it
    second = repro.reconcile_widgets(bob, alice, seed)  # I502: dotted call
    third = repro.reconcile(alice, bob, protocol="widgets")  # the uniform entry point is fine
    return first, second, third, encode_widget(alice)
