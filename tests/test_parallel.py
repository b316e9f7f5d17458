"""Unit tests for the deterministic parallel backend (:mod:`repro.parallel`).

Fast tier: worker-count resolution and gating, the serial (``workers=1``)
pass-through contract of :func:`parallel_map`, and the defence-matrix
parameterisation fix (:func:`defence_options_for`) that the sweep surface
carries.  The multi-process bit-identity regressions live in
``test_parallel_determinism.py`` (marked ``slow``).
"""

from __future__ import annotations

import pytest

from repro.core.config import ABDHFLConfig
from repro.experiments import matrix
from repro.experiments.matrix import MatrixCell, defence_options_for
from repro.obs import Tracer, trace
from repro.parallel import ENV_VAR, env_workers, parallel_map, resolve_workers
from repro.scenario import matrix_spec, run_scenario


@pytest.fixture(autouse=True)
def _no_ambient_workers(monkeypatch):
    """Resolution tests must not inherit a REPRO_WORKERS from the shell."""
    monkeypatch.delenv(ENV_VAR, raising=False)


# ======================================================================
# gating: explicit > REPRO_WORKERS > serial
# ======================================================================
class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1
        assert env_workers() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "4")
        assert env_workers() == 4
        assert resolve_workers() == 4

    def test_env_auto_is_at_least_one(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "auto")
        assert env_workers() >= 1

    def test_blank_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "   ")
        assert env_workers() is None

    @pytest.mark.parametrize("raw", ["0", "-2", "2.5", "many"])
    def test_invalid_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_VAR, raw)
        with pytest.raises(ValueError):
            env_workers()

    def test_invalid_explicit_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


def test_abdhfl_config_validates_workers():
    assert ABDHFLConfig(workers=2).workers == 2
    with pytest.raises(ValueError, match="workers"):
        ABDHFLConfig(workers=0)


# ======================================================================
# parallel_map: the workers=1 serial contract
# ======================================================================
class TestParallelMapSerial:
    def test_matches_list_comprehension(self):
        items = list(range(7))
        assert parallel_map(lambda x: x * x, items) == [x * x for x in items]

    def test_closures_allowed_in_serial_mode(self):
        # Serial mode never pickles, so non-importable callables are fine.
        offset = 10
        assert parallel_map(lambda x: x + offset, [1, 2], workers=1) == [11, 12]

    def test_empty_items(self):
        assert parallel_map(str, [], workers=1) == []

    def test_worker_count_capped_by_item_count(self):
        # 5 workers over 1 item degenerates to the serial path: a lambda
        # would fail to pickle if a pool were (pointlessly) spawned.
        assert parallel_map(lambda x: -x, [3], workers=5) == [-3]

    def test_serial_tasks_replay_into_ambient_tracer(self):
        def traced_task(x: int) -> int:
            tr = trace.tracer()
            assert tr is not None
            tr.instant(f"task.{x}", "compute", t=float(x))
            return x

        with trace.scoped(Tracer()) as ambient:
            out = parallel_map(traced_task, [2, 0, 1], workers=1)
        assert out == [2, 0, 1]
        # Events arrive in input order — the same merged order the
        # multi-process path produces.
        assert [e.name for e in ambient.events] == ["task.2", "task.0", "task.1"]


# ======================================================================
# defence-matrix parameterisation (the hard-coded-25% bugfix)
# ======================================================================
class TestDefenceOptionsFor:
    def test_trimmed_mean_tracks_fraction(self):
        assert defence_options_for("trimmed_mean", 0.10) == {"beta": 0.10}
        assert defence_options_for("trimmed_mean", 0.40) == {"beta": 0.40}

    def test_trimmed_mean_beta_capped_below_half(self):
        assert defence_options_for("trimmed_mean", 0.49) == {"beta": 0.49}
        assert defence_options_for("trimmed_mean", 0.65) == {"beta": 0.49}

    def test_krum_family_tracks_fraction(self):
        for defence in ("krum", "multikrum"):
            assert defence_options_for(defence, 0.10) == {
                "byzantine_fraction": 0.10
            }
            assert defence_options_for(defence, 0.40) == {
                "byzantine_fraction": 0.40
            }

    def test_fraction_free_rules_get_none(self):
        for defence in ("fedavg", "median", "geomed", "centered_clipping"):
            assert defence_options_for(defence, 0.40) is None


class TestMatrixUsesDerivedOptions:
    @pytest.mark.parametrize("fraction", [0.10, 0.40])
    def test_run_defence_matrix_parameterises_for_fraction(
        self, monkeypatch, fraction
    ):
        """Regression: cells at 10% / 40% must configure the defences for
        that fraction, not the canonical 25% the old table hard-coded."""
        seen: dict[str, dict] = {}
        real = matrix.get_aggregator

        def recording(name: str, **options):
            seen[name] = dict(options)
            return real(name, **options)

        monkeypatch.setattr(matrix, "get_aggregator", recording)
        cells = run_scenario(
            matrix_spec(
                defences=("trimmed_mean", "krum", "median"),
                attacks=("sign_flip",),
                fractions=(fraction,),
                n_trials=1,
            )
        ).cells
        assert seen["trimmed_mean"] == {"beta": fraction}
        assert seen["krum"] == {"byzantine_fraction": fraction}
        assert seen["median"] == {}
        assert [c.byzantine_fraction for c in cells] == [fraction] * 3

    def test_breakdown_curve_reparameterises_along_the_axis(self, monkeypatch):
        betas: list[float] = []
        real = matrix.get_aggregator

        def recording(name: str, **options):
            if name == "trimmed_mean":
                betas.append(options["beta"])
            return real(name, **options)

        monkeypatch.setattr(matrix, "get_aggregator", recording)
        cells = run_scenario(
            matrix_spec(
                kind="breakdown_curve",
                defences=("trimmed_mean",),
                attacks=("sign_flip",),
                fractions=(0.1, 0.3),
                n_trials=1,
            )
        ).cells
        assert betas == [0.1, 0.3]
        assert [c.attack for c in cells] == ["sign_flip", "sign_flip"]

    def test_breakdown_curve_rejects_untrimmable_fractions(self):
        with pytest.raises(ValueError, match=r"\[0, 0.5\)"):
            matrix_spec(
                kind="breakdown_curve",
                defences=("median",),
                attacks=("sign_flip",),
                fractions=(0.5,),
            )

    def test_cells_are_plain_dataclasses(self):
        cell = MatrixCell("median", "sign_flip", 0.25, 1.0)
        assert (cell.defence, cell.attack) == ("median", "sign_flip")
