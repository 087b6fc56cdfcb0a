"""Host-speed sampler: times a fixed pure-Python loop all through a run.

    python ptxbench/calibrate.py PERIOD_S

Prints ``ready`` once warm, then runs the loop every PERIOD_S seconds
until its stdin closes, and prints one ``START_S LOOP_MS`` line per run
(``time.perf_counter`` clock, shared by every process on the host).

It runs on the same CPU as the program under test, so it sees the same
contention from other tenants, and costs a few percent of that CPU.  The
loop mixes the interpreter work a verdict costs (dict and set probes,
tuple building, small-int arithmetic) and never touches the program.
"""

import select
import sys
import time


def loop():
    table = {}
    acc = set()
    total = 0
    for i in range(800):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + 1
        acc.add((key, i & 15))
        total += key ^ i
    return total + len(acc)


def main():
    period = float(sys.argv[1])
    # the interpreter specialises the loop over its first runs
    for _ in range(300):
        loop()
    print("ready", flush=True)
    samples = []
    while True:
        start = time.perf_counter()
        loop()
        samples.append((start, time.perf_counter() - start))
        if select.select([sys.stdin], [], [], period)[0]:
            break
    sys.stdout.write("".join(f"{s:.6f} {d * 1000.0:.5f}\n" for s, d in samples))


if __name__ == "__main__":
    main()
