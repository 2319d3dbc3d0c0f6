#!/usr/bin/env python3
"""Rendering schedules: ASCII Gantt, SVG Gantt, SVG platform view.

Schedules the integrated A/V system with EAS and EDF and writes SVG
visualisations next to this script — open them in a browser to see the
mapping difference that produces the energy gap (EAS clusters work on
the frugal tiles and keeps communicating tasks adjacent; EDF scatters
onto the fast tiles).

Run:  python examples/visualize_schedule.py [output_dir]
"""

import pathlib
import sys

from repro import av_integrated_ctg, eas_schedule, edf_schedule, mesh_3x3, render_gantt
from repro.evalx.analysis import compare_schedules
from repro.obs.utilization import analyze_schedule, utilization_view
from repro.render import render
from repro.schedule.svg import render_platform_svg, render_schedule_svg


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    ctg = av_integrated_ctg("foreman")
    acg = mesh_3x3()
    eas = eas_schedule(ctg, acg)
    edf = edf_schedule(ctg, acg)

    print(compare_schedules(eas, edf).describe())
    print()
    print(render(utilization_view(analyze_schedule(eas), pe_only=True), "text"), end="")
    print()
    print(render_gantt(eas, width=70))

    artefacts = {
        "eas_gantt.svg": render_schedule_svg(eas),
        "edf_gantt.svg": render_schedule_svg(edf),
        "eas_platform.svg": render_platform_svg(eas),
        "edf_platform.svg": render_platform_svg(edf),
    }
    for name, svg in artefacts.items():
        path = out_dir / name
        path.write_text(svg)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
