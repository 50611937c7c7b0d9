"""Transports: interchangeable execution backends for the
check service. See :mod:`repro.service.transport.base` for the
contract and :mod:`repro.service.transport.wire` for the protocol."""
