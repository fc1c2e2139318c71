"""Lobachevsky function, reference volumes, and slope extrapolation."""

import math

import pytest
from mpmath import mp

from skeinvol.hypvol import (
    CSV_FIELDS,
    IllConditioned,
    ScanRecord,
    V8,
    antiprism_volume,
    extrapolate_limit,
    family_max_volume,
    lobachevsky,
    named_volumes,
    records_to_csv,
)


def test_lobachevsky_against_clausen():
    # the Lobachevsky function is half the Clausen function at doubled angle
    for k in range(1, 40):
        theta = k * math.pi / 40
        with mp.workprec(80):
            want = float(mp.clsin(2, 2 * theta) / 2)
        assert abs(lobachevsky(theta) - want) < 1e-13


def test_lobachevsky_symmetries():
    assert lobachevsky(0.0) == 0.0
    for theta in (0.1, 0.7, 1.3, 2.9):
        assert abs(lobachevsky(-theta) + lobachevsky(theta)) < 1e-14
        assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-13
    assert abs(lobachevsky(math.pi)) < 1e-14


def test_lobachevsky_maximum():
    peak = lobachevsky(math.pi / 6)
    assert abs(peak - 0.5074708) < 1e-6
    assert peak > lobachevsky(math.pi / 6 + 0.01)
    assert peak > lobachevsky(math.pi / 6 - 0.01)


def test_named_volume_constants():
    vols = named_volumes()
    assert abs(vols["ideal-octahedron"] - 3.663862376708876) < 1e-6
    assert abs(vols["ideal-square-pyramid"] - 1.831931188354438) < 1e-6
    assert abs(vols["ideal-pentagonal-pyramid"] - 2.493386728496037) < 1e-6
    assert abs(vols["square-antiprism"] - 6.023046020047188) < 1e-6
    assert abs(vols["pentagonal-antiprism"] - 8.137885077568507) < 1e-6
    assert vols["ideal-octahedron"] == V8
    # the square pyramid is half an octahedron
    assert abs(vols["ideal-square-pyramid"] - V8 / 2) < 1e-12


def test_antiprism_volumes():
    assert abs(antiprism_volume(3) - V8) < 1e-12
    assert abs(antiprism_volume(4) - named_volumes()["square-antiprism"]) < 1e-12
    assert abs(antiprism_volume(5) - named_volumes()["pentagonal-antiprism"]) < 1e-12
    # volumes grow with the number of sides
    assert antiprism_volume(6) > antiprism_volume(5) > antiprism_volume(4)


def test_family_max_volume_is_linear():
    assert abs(family_max_volume(0) - V8) < 1e-12
    assert abs(family_max_volume(1) - 2 * V8) < 1e-12
    steps = [family_max_volume(m + 1) - family_max_volume(m) for m in range(4)]
    for s in steps:
        assert abs(s - steps[0]) < 1e-9


def test_extrapolate_recovers_model():
    pairs = [(r, 3.6 + 2 * math.log(r) / r) for r in range(51, 322, 2)]
    assert abs(extrapolate_limit(pairs) - 3.6) < 1e-6
    # decimating the samples barely moves the fitted limit
    assert abs(extrapolate_limit(pairs[::2]) - extrapolate_limit(pairs)) < 1e-6


def test_extrapolate_guards():
    with pytest.raises(IllConditioned):
        extrapolate_limit([(51, 3.6), (53, 3.6), (55, 3.6)])
    with pytest.raises(IllConditioned):
        extrapolate_limit([(101, 3.6)] * 6)


def test_csv_rendering():
    recs = [
        ScanRecord(7, "tet", "fixed", 1.5, 0.673, None, None, 12.25),
        ScanRecord(9, "tet", "maximizer", math.pi, 0.1, 3.663862376708876, 0.05, 3.0, 18.5),
    ]
    text = records_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "7" and row[1] == "tet" and row[2] == "fixed"
    assert row[5] == "" and row[6] == ""  # absent target and gap stay empty
    row2 = lines[2].split(",")
    assert abs(float(row2[3]) - math.pi) < 1e-10
