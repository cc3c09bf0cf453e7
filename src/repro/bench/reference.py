"""Published numbers from the paper, transcribed for comparison.

Values come from the figures and text of the ASPLOS '21 paper.  The
lr_training / video_processing bars are partially occluded in the
figure text; the transcription below is the unique assignment consistent
with the stated 1.04-9.7x speedup range, the 3.7x geometric mean, and
the §6.3 discussion (provenance beyond this note not yet written down).
"""

from __future__ import annotations

#: Fig. 2: warm invocation latency, ms.
FIG2_WARM_MS = {
    "helloworld": 1.0,
    "chameleon": 29.0,
    "pyaes": 3.0,
    "image_rotate": 37.0,
    "json_serdes": 27.0,
    "lr_serving": 2.0,
    "cnn_serving": 192.0,
    "rnn_serving": 25.0,
    "lr_training": 4991.0,
    "video_processing": 1476.0,
}

#: Fig. 2 / Fig. 8 (left bars): baseline snapshot cold start, ms.
FIG2_COLD_MS = {
    "helloworld": 232.0,
    "chameleon": 437.0,
    "pyaes": 309.0,
    "image_rotate": 594.0,
    "json_serdes": 535.0,
    "lr_serving": 647.0,
    "cnn_serving": 1424.0,
    "rnn_serving": 503.0,
    "lr_training": 8057.0,
    "video_processing": 2642.0,
}

#: Fig. 8 (right bars): REAP cold start, ms.
FIG8_REAP_MS = {
    "helloworld": 60.0,
    "chameleon": 97.0,
    "pyaes": 55.0,
    "image_rotate": 207.0,
    "json_serdes": 127.0,
    "lr_serving": 66.0,
    "cnn_serving": 237.0,
    "rnn_serving": 82.0,
    "lr_training": 6090.0,
    "video_processing": 2540.0,
}

#: Fig. 7: the helloworld design-point ladder, ms.
FIG7_DESIGN_POINTS_MS = {
    "vanilla": 232.0,
    "parallel_pf": 118.0,
    "ws_file": 71.0,
    "reap": 60.0,
}

#: §6.2: effective SSD bandwidth each design point extracts, MB/s.
FIG7_BANDWIDTH_MBPS = {
    "vanilla": 43.0,
    "parallel_pf": 130.0,
    "ws_file": 275.0,
    "reap": 533.0,
}

#: §5.2.3: fio microbenchmark calibration, MB/s.
FIO_MBPS = {
    "randread_qd1_4k": 32.0,
    "randread_qd16_4k": 360.0,
    "seqread_peak": 850.0,
}

#: Fig. 3: mean contiguous-run length of faulted guest pages.
FIG3_CONTIGUITY = {
    "helloworld": 2.2,
    "chameleon": 2.5,
    "pyaes": 2.3,
    "image_rotate": 2.6,
    "json_serdes": 2.5,
    "lr_serving": 2.4,
    "cnn_serving": 2.8,
    "rnn_serving": 2.4,
    "lr_training": 4.0,
    "video_processing": 2.7,
}

#: Fig. 4 ranges (§4.3): booted footprint 148-256 MB; restore working
#: set 8-99 MB, ~24 MB average; reduction 61-96 %.
FIG4_BOOT_RANGE_MB = (148.0, 256.0)
FIG4_RESTORE_RANGE_MB = (7.0, 100.0)
FIG4_REDUCTION_RANGE = (0.55, 0.97)

#: Fig. 5 (§4.4): fraction of pages identical across invocations; >=97 %
#: for 7 of 10 functions, >76 % for the large-input four.
FIG5_MIN_SAME_FRACTION = {
    "helloworld": 0.97,
    "chameleon": 0.97,
    "pyaes": 0.97,
    "image_rotate": 0.76,
    "json_serdes": 0.76,
    "lr_serving": 0.97,
    "cnn_serving": 0.97,
    "rnn_serving": 0.97,
    "lr_training": 0.76,
    "video_processing": 0.76,
}

#: §6.3: average end-to-end speedup (geometric mean) and range.
FIG8_SPEEDUP_GEOMEAN = 3.7
FIG8_SPEEDUP_RANGE = (1.04, 9.8)

#: §6.3: connection restoration shrinks ~45x to 4-7 ms under REAP.
REAP_CONNECTION_MS_RANGE = (3.0, 8.0)

#: §6.4: record-phase one-time overhead (+15-87 %, ~28 % average).
RECORD_OVERHEAD_RANGE = (0.08, 0.90)
RECORD_OVERHEAD_MEAN = 0.28

#: §6.3: HDD instead of SSD -> 5.4x average REAP speedup.
HDD_SPEEDUP_GEOMEAN = 5.4

#: §6.3: results within 5 % with 20 warm functions in the background.
WARM_BACKGROUND_TOLERANCE = 0.05

#: §7.1: misprediction fraction tracks the unique-page fraction (3-39 %).
MISPREDICTION_RANGE = (0.02, 0.39)

#: §6.5 (Fig. 9): REAP 70 ms -> 185 ms from 1 to 8 concurrent loads;
#: baseline near-linear; REAP disk-bound from ~16.
FIG9_LEVELS = (1, 2, 4, 8, 16, 32, 64)
