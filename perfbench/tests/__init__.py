"""Tests of the benchmark."""
