#!/usr/bin/env python3
"""Render EXPERIMENTS.md's tables from committed bench reports.

    python3 bench/report_tables.py BENCH_recovery_fault.json \
        BENCH_total_recovery.json BENCH_client_swarm.json

Each argument is a report written by bench_recovery_fault,
bench_total_recovery or bench_client_swarm (run from the repo root to
refresh them). Prints one markdown table per report, rows in the order the
bench recorded them, followed by the report's provenance.
"""

import json
import re
import sys


def cases(metrics):
    """Group `label/metric` keys into {label: {metric: value}}, in order."""
    out = {}
    for key, value in metrics.items():
        label, _, name = key.rpartition("/")
        out.setdefault(label, {})[name] = value
    return out


def recovery_label(label):
    if m := re.fullmatch(r"timeout_us_([\d.]+)", label):
        return f"timeout {float(m[1]):g} µs"
    if m := re.fullmatch(r"nodes_(\d+)", label):
        return f"{m[1]} nodes, last node crashes"
    if label == "leader":
        return "leader crash"
    if m := re.fullmatch(r"node(\d+)", label):
        return f"node {m[1]} crash"
    return label


def total_label(label):
    if m := re.fullmatch(r"nodes_(\d+)", label):
        return f"nodes={m[1]}"
    if m := re.fullmatch(r"crash_at_us_([\d.]+)", label):
        return f"crash_at={float(m[1]) / 1000:g} ms"
    if m := re.fullmatch(r"restarters_(\d+)", label):
        return f"restarters={m[1]} of 4"
    return label


def recovery_fault(report):
    print("| case | detect µs | install µs | install − detect µs "
          "| max gap µs | post Mmsg/s |")
    print("|---|---|---|---|---|---|")
    for label, m in cases(report["metrics"]).items():
        print(f"| {recovery_label(label)} | {m['detect_us']:.1f} "
              f"| {m['install_us']:.1f} "
              f"| {m['install_us'] - m['detect_us']:.1f} "
              f"| {m['max_gap_us']:.1f} | {m['post_mmps']:.2f} |")


def total_recovery(report):
    print("| sweep | halt µs | install µs | first_new µs | lcp_rec "
          "| lost_rec |")
    print("|---|---|---|---|---|---|")
    for label, m in cases(report["metrics"]).items():
        print(f"| {total_label(label)} | {m['halt_us']:g} "
              f"| {m['install_us']:g} | {m['first_new_us']:.1f} "
              f"| {m['lcp_records']:g} | {m['lost_records']:g} |")


def client_swarm(report):
    metrics = report["metrics"]
    rows = {}
    for key, value in metrics.items():
        if m := re.fullmatch(r"poisson_([\d.]+)krps_(\w+)", key):
            rows.setdefault(float(m[1]), {})[m[2]] = value
    knee = metrics["knee_rps_per_relay"] / 1e3
    print("| offered krps/relay | goodput krps | p50 µs | p99 µs | p999 µs "
          "| busy |")
    print("|---|---|---|---|---|---|")
    for rate, m in rows.items():
        cells = [f"{rate:g}", f"{m['goodput_rps'] / 1e3:.1f}",
                 f"{m['p50_us']:.1f}", f"{m['p99_us']:.1f}",
                 f"{m['p999_us']:.1f}", f"{m['shed']:g}"]
        if rate == knee:
            cells[0] += " (knee)"
            cells = [f"**{c}**" for c in cells]
        print("| " + " | ".join(cells) + " |")


def main(paths):
    render = {"recovery_fault": recovery_fault,
              "total_recovery": total_recovery,
              "client_swarm": client_swarm}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        render[report["bench"]](report)
        p = report["provenance"]
        print(f"\n(`{path}`: seed {p['seed']}, "
              f"{p['messages_per_sender']} messages per sender, "
              f"sim_threads {p['sim_threads']}, "
              f"hardware_concurrency {p['hardware_concurrency']}.)\n")


if __name__ == "__main__":
    main(sys.argv[1:])
