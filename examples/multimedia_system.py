#!/usr/bin/env python3
"""The paper's Sec. 6.2 workload: A/V encoder, decoder, integrated system.

Schedules the three multimedia benchmarks on their paper platforms
(2x2 / 2x2 / 3x3) across all three clips, prints Table 1-3 style rows,
the computation/communication energy split, and the average-hops
statistic, and cross-checks every schedule with the replay simulator.

Run:  python examples/multimedia_system.py
"""

from repro import (
    CLIP_NAMES,
    av_decoder_ctg,
    av_encoder_ctg,
    av_integrated_ctg,
    eas_schedule,
    edf_schedule,
    mesh_2x2,
    mesh_3x3,
    simulate_schedule,
)

SYSTEMS = [
    ("A/V encoder (Table 1, 24 tasks, 2x2)", av_encoder_ctg, mesh_2x2),
    ("A/V decoder (Table 2, 16 tasks, 2x2)", av_decoder_ctg, mesh_2x2),
    ("A/V integrated (Table 3, 40 tasks, 3x3)", av_integrated_ctg, mesh_3x3),
]


def main() -> None:
    for title, build_ctg, build_acg in SYSTEMS:
        print(f"== {title} ==")
        for clip in CLIP_NAMES:
            ctg = build_ctg(clip)
            acg = build_acg()
            eas = eas_schedule(ctg, acg)
            edf = edf_schedule(ctg, acg)

            # Independent executable-witness for both schedules.
            simulate_schedule(eas)
            simulate_schedule(edf)

            savings = (
                100 * (edf.total_energy() - eas.total_energy()) / edf.total_energy()
            )
            print(
                f"  {clip:>8}: EAS {eas.total_energy():10.1f} nJ "
                f"(comp {eas.computation_energy():9.1f} / "
                f"comm {eas.communication_energy():7.1f}), "
                f"EDF {edf.total_energy():10.1f} nJ, savings {savings:4.1f}%, "
                f"hops {eas.average_hops_per_packet():.2f} vs "
                f"{edf.average_hops_per_packet():.2f}, "
                f"misses EAS={len(eas.deadline_misses())} EDF={len(edf.deadline_misses())}"
            )
        print()


if __name__ == "__main__":
    main()
