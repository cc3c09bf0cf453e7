"""The FunctionBench suite (Table 1), with calibrated profiles.

Each profile's numbers were derived from the paper's own measurements:

* ``warm_ms`` comes straight from the warm bars of Fig. 2;
* working-set sizes are fitted jointly to the baseline cold bars of
  Fig. 2 *and* the REAP bars of Fig. 8 (the REAP bar pins the working
  set via the O_DIRECT fetch time; the baseline bar then pins the
  per-fault cost through ``fault_cpu_us``);
* unique-page counts follow Fig. 5 (~3 % of pages for the small-input
  functions, ~18-25 % for the four large-input ones);
* contiguity means follow Fig. 3 (2-3 pages, lr_training up to 5);
* boot footprints follow Fig. 4 (148-256 MB range);
* ``record_divergence`` is non-zero only for video_processing, whose
  record-phase working set differs from later invocations (§6.3), which
  is why its REAP speedup is only 1.04x;
* ``unique_zero_fraction`` reflects how much of a function's
  per-invocation unique footprint is fresh anonymous allocation (cheap
  zero-fill) versus reuse of snapshotted allocator regions (disk read).

lr_training's working set is capped at the paper's own <=99 MB Fig.-4
bound, and cnn_serving's Fig.-8 REAP bar is not mechanically reachable
(237 ms leaves <10 ms for fetching a multi-ten-MB working set at
850 MB/s); neither deviation is quantified in a document yet.
"""

from __future__ import annotations

from repro.functions.spec import FunctionProfile

FUNCTIONBENCH: dict[str, FunctionProfile] = {
    profile.name: profile for profile in [
        FunctionProfile(
            name="helloworld",
            description="Minimal function",
            boot_footprint_mb=148.0,
            warm_ms=1.0,
            init_ms=200.0,
            connection_pages=1200,
            processing_pages=700,
            unique_pages=55,
            unique_zero_fraction=0.9,
            contiguity_mean=2.2,
        ),
        FunctionProfile(
            name="chameleon",
            description="HTML table rendering",
            boot_footprint_mb=170.0,
            warm_ms=29.0,
            init_ms=400.0,
            connection_pages=1200,
            processing_pages=2296,
            unique_pages=117,
            unique_zero_fraction=0.9,
            contiguity_mean=2.5,
            fault_cpu_us=25.0,
        ),
        FunctionProfile(
            name="pyaes",
            description="Text encryption with an AES block-cipher",
            boot_footprint_mb=155.0,
            warm_ms=3.0,
            init_ms=300.0,
            connection_pages=1200,
            processing_pages=1003,
            unique_pages=81,
            unique_zero_fraction=0.9,
            contiguity_mean=2.3,
            fault_cpu_us=50.0,
        ),
        FunctionProfile(
            name="image_rotate",
            description="JPEG image rotation",
            boot_footprint_mb=185.0,
            warm_ms=37.0,
            init_ms=500.0,
            connection_pages=1200,
            processing_pages=3256,
            unique_pages=1350,
            unique_zero_fraction=0.8,
            contiguity_mean=2.6,
            fault_cpu_us=25.0,
            input_mb=1.5,
        ),
        FunctionProfile(
            name="json_serdes",
            description="JSON serialization and de-serialization",
            boot_footprint_mb=180.0,
            warm_ms=27.0,
            init_ms=400.0,
            connection_pages=1200,
            processing_pages=3209,
            unique_pages=980,
            unique_zero_fraction=0.95,
            contiguity_mean=2.5,
            fault_cpu_us=10.0,
            input_mb=1.0,
        ),
        FunctionProfile(
            name="lr_serving",
            description="Review analysis, serving (logistic regr., Scikit)",
            boot_footprint_mb=190.0,
            warm_ms=2.0,
            init_ms=800.0,
            connection_pages=1200,
            processing_pages=3213,
            unique_pages=190,
            unique_zero_fraction=0.95,
            contiguity_mean=2.4,
            fault_cpu_us=90.0,
        ),
        FunctionProfile(
            name="cnn_serving",
            description="Image classification (CNN, TensorFlow)",
            boot_footprint_mb=240.0,
            warm_ms=192.0,
            init_ms=3000.0,
            connection_pages=2000,
            processing_pages=9034,
            unique_pages=400,
            unique_zero_fraction=0.9,
            contiguity_mean=2.8,
            fault_cpu_us=45.0,
        ),
        FunctionProfile(
            name="rnn_serving",
            description="Names sequence generation (RNN, PyTorch)",
            boot_footprint_mb=210.0,
            warm_ms=25.0,
            init_ms=1500.0,
            connection_pages=1200,
            processing_pages=2406,
            unique_pages=135,
            unique_zero_fraction=0.9,
            contiguity_mean=2.4,
            fault_cpu_us=55.0,
        ),
        FunctionProfile(
            name="lr_training",
            description="Review analysis, training (logistic regr., Scikit)",
            boot_footprint_mb=230.0,
            warm_ms=4991.0,
            init_ms=800.0,
            connection_pages=2000,
            processing_pages=17150,
            unique_pages=5000,
            unique_zero_fraction=0.2,
            contiguity_mean=4.0,
            fault_cpu_us=70.0,
            input_mb=8.0,
        ),
        FunctionProfile(
            name="video_processing",
            description="Applies gray-scale effect (OpenCV)",
            boot_footprint_mb=220.0,
            warm_ms=1476.0,
            init_ms=700.0,
            connection_pages=1500,
            processing_pages=6790,
            unique_pages=2700,
            unique_zero_fraction=0.5,
            contiguity_mean=2.7,
            fault_cpu_us=25.0,
            input_mb=5.0,
            record_divergence=0.5,
        ),
    ]
}


def get_profile(name: str) -> FunctionProfile:
    """Look up a FunctionBench profile by name."""
    try:
        return FUNCTIONBENCH[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONBENCH))
        raise KeyError(f"unknown function {name!r}; known: {known}") from None


def catalog_names() -> list[str]:
    """All function names in the paper's Table 1 order."""
    return list(FUNCTIONBENCH)


#: Warm latency above which a function reads as a batch job (lr_training,
#: video_processing): timer-scheduled rather than request-driven.
BATCH_WARM_MS = 1000.0

#: Keep-alive window (seconds) the trace experiments pair with each rate
#: class.  Providers tune keep-alive against the traffic they see
#: (§2.1: 8-20 minutes after the last invocation); the interplay is what
#: decides the cold fraction.  Sporadic traffic gets a short window (its
#: inter-arrival tail dwarfs any affordable keep-alive, so invocations
#: stay cold -- REAP's target population); periodic timers fit inside a
#: generous window and stay warm; bursty traffic sits in between (warm
#: within a burst, cold at the head of each one).  The ``azure`` mix
#: uses one mid-range window across its whole population, as a real
#: provider must.
RATE_CLASS_KEEPALIVE_S = {
    "sporadic": 60.0,
    "periodic": 600.0,
    "bursty": 120.0,
    "azure": 120.0,
}


def default_rate_class(name: str) -> str:
    """Rate class a function's profile suggests (for ``azure`` traces).

    Heavy batch jobs (warm time over :data:`BATCH_WARM_MS`) run on
    cron-style schedules, i.e. periodic; functions with bulk inputs are
    pipeline stages fed by upstream batches, arriving in bursts; the
    light interactive rest is the Azure study's long tail of
    rarely-invoked endpoints, i.e. sporadic (the 90 % invoked less than
    once per minute).
    """
    profile = get_profile(name)
    if profile.warm_ms >= BATCH_WARM_MS:
        return "periodic"
    if profile.input_mb > 0.0:
        return "bursty"
    return "sporadic"


def recommended_keepalive_s(rate_class: str) -> float:
    """Keep-alive window matched to a rate class (see the table above)."""
    try:
        return RATE_CLASS_KEEPALIVE_S[rate_class]
    except KeyError:
        known = ", ".join(sorted(RATE_CLASS_KEEPALIVE_S))
        raise KeyError(f"unknown rate class {rate_class!r}; "
                       f"known: {known}") from None
