"""Party state machines for every protocol in the library.

Each module splits its protocols into explicit initiator/responder
generators (see :mod:`repro.protocols.party`) plus the wire codecs for their
messages.  This package is the only spelling of each protocol:
:func:`repro.reconcile` runs these parties over any transport.
"""
