"""Party state machines for every protocol in the library.

Each module splits its protocols into explicit initiator/responder
generators (see :mod:`repro.protocols.party`) plus the wire codecs for their
messages.  This package is the only spelling of each protocol: every
``reconcile_*`` free function is a thin wrapper that runs these parties over
an in-memory session; :func:`repro.reconcile` runs them over any transport.
"""
