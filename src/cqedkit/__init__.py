"""Simulation and analysis toolkit for a strongly coupled quantum
dot-microcavity single photon source."""
