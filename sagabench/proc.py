"""Readers of /proc for the benchmark's own processes: age, resident set
and its peak, CPU time of a process tree, children."""
from __future__ import annotations

import os
from pathlib import Path


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution)."""
    stat = Path("/proc/self/stat").read_text()
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _status_mb(key: str, pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {key} in /proc/{pid}/status")


def rss_mb(pid: int | str = "self") -> float:
    """Resident set now."""
    return _status_mb("VmRSS", pid)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Highest resident set so far (VmHWM)."""
    return _status_mb("VmHWM", pid)


def _stats() -> dict[int, list[str]]:
    """pid → the fields of /proc/<pid>/stat after the command name."""
    out = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                out[int(d.name)] = (d / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
    return out


def descendants(pid: int, stats: dict[int, list[str]] | None = None) -> set[int]:
    """Every process under ``pid``."""
    stats = _stats() if stats is None else stats
    out, todo = set(), [pid]
    while todo:
        parent = todo.pop()
        for p, f in stats.items():
            if int(f[1]) == parent and p not in out:
                out.add(p)
                todo.append(p)
    return out


def cpu_seconds(jvm_pid: int) -> float:
    """CPU time used so far by this process, the Spark JVM and every
    process under the JVM (Python workers), reaped children included, less
    the JVM's JIT compiler threads: in a JVM that lives two minutes they
    compile Spark's own code, and when they run varies from run to run."""
    stats = _stats()
    tree = {os.getpid(), jvm_pid} | descendants(jvm_pid, stats)
    # utime, stime, cutime, cstime are fields 14-17 of stat (11-14 here)
    ticks = sum(int(x) for p in tree if p in stats for x in stats[p][11:15])
    for task in Path(f"/proc/{jvm_pid}/task").iterdir():
        try:
            stat = (task / "stat").read_text()
        except OSError:
            continue
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        if name.startswith(("C1 CompilerThre", "C2 CompilerThre")):
            ticks -= sum(int(x) for x in stat.rsplit(")", 1)[1].split()[11:13])
    return ticks / os.sysconf("SC_CLK_TCK")


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
