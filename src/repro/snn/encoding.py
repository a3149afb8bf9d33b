"""Input spike encoding.

SNNs require their analog inputs (pixel intensities) to be encoded as spike
trains.  RESPARC, like the training/conversion flow it references (Diehl et
al., IJCNN'15), uses rate coding: a pixel of intensity ``x`` in ``[0, 1]``
produces spikes with probability (or deterministic rate) proportional to
``x`` at every timestep.

Two encoders are provided:

* :class:`PoissonEncoder` — stochastic Bernoulli/Poisson spikes (the paper's
  setting; also what produces the zero-run-length statistics exploited by
  the event-driven optimisations of Fig. 13).
* :class:`DeterministicRateEncoder` — an error-diffusion rate encoder that
  produces the same mean rate without randomness, used by tests that need
  exact reproducibility at very few timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive

__all__ = [
    "PoissonEncoder",
    "DeterministicRateEncoder",
    "EncoderState",
    "spike_train_statistics",
]


@dataclass
class PoissonEncoder:
    """Bernoulli (rate-coded) spike encoder.

    Parameters
    ----------
    max_rate:
        Spike probability per timestep for a full-intensity input (1.0 means
        an intensity-1 pixel spikes every timestep).
    rng:
        Random generator; required because the encoder is stochastic.
    """

    rng: np.random.Generator
    max_rate: float = 1.0

    def __post_init__(self) -> None:
        check_positive("max_rate", self.max_rate)
        if self.max_rate > 1.0:
            raise ValueError(f"max_rate is a per-step probability and must be <= 1, got {self.max_rate}")

    def encode(self, values: np.ndarray, timesteps: int) -> np.ndarray:
        """Encode intensities into a spike train.

        Parameters
        ----------
        values:
            Array of intensities in ``[0, 1]`` with shape ``(batch, ...)``.
        timesteps:
            Number of timesteps to generate.

        Returns
        -------
        numpy.ndarray
            Binary array of shape ``(timesteps, batch, ...)``.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        x = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
        probabilities = x * self.max_rate
        draws = self.rng.random((timesteps,) + x.shape)
        return (draws < probabilities).astype(float)


@dataclass
class DeterministicRateEncoder:
    """Error-diffusion rate encoder.

    Each input accumulates its intensity every timestep and emits a spike
    whenever the accumulator crosses 1, subtracting 1 on emission.  The spike
    count over ``T`` steps equals ``floor(x * T)`` (within one spike), so the
    mean rate matches the Poisson encoder without stochastic variance.
    """

    max_rate: float = 1.0

    def __post_init__(self) -> None:
        check_positive("max_rate", self.max_rate)
        if self.max_rate > 1.0:
            raise ValueError(f"max_rate must be <= 1, got {self.max_rate}")

    def encode(self, values: np.ndarray, timesteps: int) -> np.ndarray:
        """Encode intensities into a deterministic spike train.

        Same interface as :meth:`PoissonEncoder.encode`.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        x = np.clip(np.asarray(values, dtype=float), 0.0, 1.0) * self.max_rate
        return _diffuse(x, timesteps).astype(float)


def _diffuse(rates: np.ndarray, timesteps: int) -> np.ndarray:
    """The error-diffusion spikes of per-step ``rates``, bool ``(timesteps, ...)``."""
    accumulator = np.zeros_like(rates)
    spikes = np.empty((timesteps,) + rates.shape, dtype=bool)
    for t in range(timesteps):
        accumulator += rates
        np.greater_equal(accumulator, 1.0, out=spikes[t])
        accumulator -= spikes[t]
    return spikes


@dataclass(frozen=True)
class EncoderState:
    """Serializable encoder configuration with shard-stable randomness.

    The stock :class:`PoissonEncoder` draws one random block covering the
    whole batch, so the spike train of sample ``i`` depends on how many
    samples precede it — a batch split across workers would encode
    differently than the same batch encoded at once.  ``EncoderState``
    instead derives an independent generator per *absolute* sample index
    from ``(seed, sample_offset + i)``, which makes encoding a pure function
    of ``(state, values, timesteps)``:

    * repeated :meth:`encode` calls are identical (no hidden stream state),
    * a shard extracted with :meth:`shard` encodes exactly the slice the
      full-batch encoding would produce, regardless of how the batch is
      partitioned — the property :class:`repro.serve.ChipPool` relies on.

    The state is a plain frozen dataclass and round-trips through
    :meth:`to_dict` / :meth:`from_dict`, so a session's encoder can cross a
    process boundary alongside its results.
    """

    kind: str = "deterministic"
    seed: int = 0
    max_rate: float = 1.0
    #: Absolute index of this state's first sample within the logical batch.
    sample_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "deterministic"):
            raise ValueError(
                f"encoder kind must be 'poisson' or 'deterministic', got {self.kind!r}"
            )
        check_positive("max_rate", self.max_rate)
        if self.max_rate > 1.0:
            raise ValueError(f"max_rate must be <= 1, got {self.max_rate}")
        if self.sample_offset < 0:
            raise ValueError(f"sample_offset must be >= 0, got {self.sample_offset}")

    def shard(self, start: int) -> "EncoderState":
        """Extract the encoder state of a shard beginning ``start`` samples in."""
        if start < 0:
            raise ValueError(f"shard start must be >= 0, got {start}")
        if start == 0:
            return self
        return replace(self, sample_offset=self.sample_offset + start)

    def encode(self, values: np.ndarray, timesteps: int) -> np.ndarray:
        """Encode a ``(batch, ...)`` intensity array into a ``bool``
        ``(timesteps, batch, ...)`` spike train.

        Every sample is encoded from its own derived generator, so the output
        for sample ``i`` depends only on ``(seed, sample_offset + i)`` — not
        on the batch it happens to share a request with.  The spikes are
        those of the stock encoders at the state's ``max_rate``, one
        ``bool`` byte each, which the vectorized kernel reads as they are:
        sample ``i`` of the Poisson kind is ``PoissonEncoder(rng=derive_rng(
        seed, "encoder", sample_offset + i)).encode(values[i], timesteps) !=
        0``, and the deterministic kind gives
        ``DeterministicRateEncoder().encode(values, timesteps) != 0``.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        x = np.atleast_2d(np.asarray(values, dtype=float))
        rates = np.clip(x, 0.0, 1.0) * self.max_rate
        if self.kind == "deterministic":
            # Error diffusion is elementwise per sample: slicing commutes
            # with encoding, so no per-sample generators are needed.
            return _diffuse(rates, timesteps)
        spikes = np.empty((timesteps,) + x.shape, dtype=bool)
        # One sample's draws at a time, in the order PoissonEncoder draws
        # them, compared straight into the train.
        draws = np.empty((timesteps,) + x.shape[1:])
        for i in range(x.shape[0]):
            derive_rng(self.seed, "encoder", self.sample_offset + i).random(out=draws)
            np.less(draws, rates[i], out=spikes[:, i])
        return spikes

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible representation."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "max_rate": self.max_rate,
            "sample_offset": self.sample_offset,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "EncoderState":
        """Rebuild a state produced by :meth:`to_dict`."""
        return cls(
            kind=str(data["kind"]),
            seed=int(data["seed"]),
            max_rate=float(data.get("max_rate", 1.0)),
            sample_offset=int(data.get("sample_offset", 0)),
        )


def spike_train_statistics(spike_train: np.ndarray, packet_bits: int = 32) -> dict[str, float]:
    """Summary statistics of a spike train used by the event-driven study.

    Parameters
    ----------
    spike_train:
        Binary array whose leading axis is time; remaining axes are flattened
        into a neuron axis.
    packet_bits:
        Spike-packet width.  Consecutive groups of ``packet_bits`` neurons
        form one packet; an all-zero packet can be suppressed by RESPARC's
        zero-check logic.

    Returns
    -------
    dict
        ``mean_rate`` — average spike probability per neuron per step;
        ``zero_fraction`` — fraction of individual spike slots that are zero;
        ``zero_packet_fraction`` — fraction of ``packet_bits``-wide packets
        that are entirely zero (the quantity RESPARC's zero-check exploits).
    """
    if packet_bits <= 0:
        raise ValueError(f"packet_bits must be positive, got {packet_bits}")
    train = np.asarray(spike_train, dtype=float)
    if train.ndim < 2:
        raise ValueError("spike_train must have a time axis and at least one neuron axis")
    timesteps = train.shape[0]
    flat = train.reshape(timesteps, -1)
    n_neurons = flat.shape[1]

    mean_rate = float(flat.mean()) if flat.size else 0.0

    n_packets = int(np.ceil(n_neurons / packet_bits))
    padded = np.zeros((timesteps, n_packets * packet_bits))
    padded[:, :n_neurons] = flat
    packets = padded.reshape(timesteps, n_packets, packet_bits)
    zero_packets = (packets.sum(axis=2) == 0).mean() if packets.size else 1.0

    return {
        "mean_rate": mean_rate,
        "zero_fraction": 1.0 - mean_rate,
        "zero_packet_fraction": float(zero_packets),
    }
